"""Parameter estimation: pseudo-likelihood, Monte-Carlo MLE, profiles.

The pseudo-likelihood estimator is a Newton logistic fit of dyad states
on change statistics.  The Monte-Carlo MLE re-anchors an importance-
sampled log-likelihood-ratio surrogate until the anchor stops moving,
then reports absolute log-likelihood through a bridge of simulations
along the straight path from the MLE of the dyad-independent submodel
(whose normalizer is known in closed form) to the estimate, so profile
curves over different exponents share one reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.special import erfc, expit, logsumexp

from .formula import format_spec
from .graph import Attributes, BipartiteNetwork
from .oracle import EstimationError, hull_direction
from .sampler import RNG_ALGORITHM, SamplerControl, simulate
from .terms import BoundModel, ModelSpec, bind


class SeparationError(EstimationError):
    """The logistic pseudo-likelihood is maximized at infinity; `direction`
    is a separating direction in statistic space."""

    def __init__(self, message: str, direction: np.ndarray):
        super().__init__(message)
        self.direction = direction


class NonConvergenceError(EstimationError):
    """The Monte-Carlo MLE loop gave up (hull violations or anchor limit)."""


class DegeneracyWarning(UserWarning):
    """The design behind an MPLE covariance, or the final sample behind an
    MC-MLE covariance, leaves some coefficients unidentified."""


def significance_stars(p_value: float) -> str:
    """Stars at the 0.05 / 0.001 / 0.0001 levels."""
    if p_value < 1e-4:
        return "***"
    if p_value < 1e-3:
        return "**"
    if p_value < 0.05:
        return "*"
    return ""


def wald_p_value(estimate: float, std_error: float) -> float:
    if std_error <= 0.0:
        return 0.0 if estimate != 0.0 else 1.0
    z = abs(estimate) / std_error
    return float(erfc(z / math.sqrt(2.0)))


@dataclass
class FitResult:
    """Coefficients, covariance, approximate log-likelihood, diagnostics."""

    method: str  # "mple" or "mcmcmle"
    names: list[str]
    theta: np.ndarray
    covariance: np.ndarray
    loglik: float
    loglik_sd: float
    diagnostics: dict = field(default_factory=dict)
    formula: str | None = None

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    @property
    def p_values(self) -> np.ndarray:
        se = self.std_errors
        return np.array([wald_p_value(t, s) for t, s in zip(self.theta, se)])

    def summary(self) -> str:
        width = max(12, max((len(n) for n in self.names), default=0) + 2)
        lines = []
        if self.formula:
            lines.append(f"model: {self.formula}")
        lines.append(f"method: {self.method}")
        lines.append(f"{'statistic':<{width}}{'estimate':>12}{'s.e.':>12}")
        for name, est, se, p in zip(self.names, self.theta, self.std_errors, self.p_values):
            lines.append(f"{name:<{width}} {est:>11.4f} {se:>11.4f}  {significance_stars(p)}")
        lines.append("significance: * p<0.05, ** p<0.001, *** p<0.0001 (Wald z-test)")
        lines.append(f"log-likelihood: {self.loglik:.4f} (mc sd {self.loglik_sd:.4f})")
        for key in ("seed", "rng", "control", "anchors", "acceptance_rate"):
            if key in self.diagnostics:
                lines.append(f"{key}: {self.diagnostics[key]}")
        return "\n".join(lines)


def contrast(fit: FitResult, weights) -> tuple[float, float]:
    """Linear combination of coefficients and its standard error."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != fit.theta.shape:
        raise ValueError(f"weights have shape {w.shape}, fit has {fit.theta.shape}")
    estimate = float(w @ fit.theta)
    variance = float(w @ fit.covariance @ w)
    return estimate, math.sqrt(max(variance, 0.0))


def _covariance(info: np.ndarray, rows: np.ndarray, names: list[str], what: str) -> tuple[np.ndarray, list[str]]:
    """Covariance from the information `info` built on `rows`: the inverse
    of `info` when `rows` has full column rank.  Otherwise a statistic in
    the null space (a zero column, or one that others add up to) is not
    identified: its row and column are NaN and a DegeneracyWarning starting
    with `what` names it.  The rest invert `info` on its other eigenvectors,
    as any full-rank reparametrization would; returns the names too."""
    p = len(names)
    rank = np.linalg.matrix_rank(rows)
    if rank == p:
        try:
            cov = np.linalg.inv(info)
            return 0.5 * (cov + cov.T), []
        except np.linalg.LinAlgError:
            # full-rank rows whose weights vanish on all but a few of them
            rank = np.linalg.matrix_rank(info)
    vals, vecs = np.linalg.eigh(info)
    lost = np.linalg.norm(vecs[:, : p - rank], axis=1) > 1e-8
    kept = vecs[:, p - rank :]
    cov = (kept / vals[p - rank :]) @ kept.T
    cov[lost] = cov[:, lost] = np.nan
    unknown = [name for name, bad in zip(names, lost) if bad]
    if unknown:
        warnings.warn(DegeneracyWarning(f"{what}: " + ", ".join(unknown)))
    return 0.5 * (cov + cov.T), unknown


# ---------------------------------------------------------------------------
# maximum pseudo-likelihood
# ---------------------------------------------------------------------------


def _dyad_design(model: BoundModel, net: BipartiteNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Change statistics `X` (one row per dyad) and dyad states `y`.

    Rows run over mode-1 nodes outer and mode-2 nodes inner, the order of
    `biadjacency().ravel()`; each term evaluator fills its columns for
    every dyad at once from the biadjacency matrix.
    """
    B = net.biadjacency().astype(np.float64)
    X = np.empty((B.size, model.p))
    for ev in model.evaluators:
        X[:, ev.offset : ev.offset + ev.width] = ev.columns(B)
    return X, B.ravel()


def _distinct_rows(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of (X, y) in lexicographic order, with the number
    of times each occurs; what `np.unique(..., axis=0, return_counts=True)`
    gives on the stacked table, without that copy or its row sort, which
    is an order of magnitude slower."""
    order = np.lexsort((y, *X.T[::-1]))
    X, y = X[order], y[order]
    first = np.ones(len(y), dtype=bool)
    first[1:] = np.any(X[1:] != X[:-1], axis=1) | (y[1:] != y[:-1])
    starts = np.flatnonzero(first)
    return X[starts], y[starts], np.diff(starts, append=len(y))


def _pseudo_loglik(X, y, counts, theta) -> float:
    eta = X @ theta
    return float(counts @ (y * eta - np.logaddexp(0.0, eta)))


def mple(
    spec: ModelSpec,
    net: BipartiteNetwork,
    attrs: Attributes,
) -> FitResult:
    """Maximum pseudo-likelihood: logistic Newton fit of dyad states on
    change statistics, covariance from the inverse negative Hessian.

    The fit runs on the distinct (change statistics, state) rows of the
    dyad design, each weighted by how many dyads share it, which gives the
    per-dyad pseudo-likelihood at a fraction of the work;
    `diagnostics["design_rows"]` reports their number.  Raises
    SeparationError when the logistic MLE does not exist: the origin lies
    outside the hull of the sign-flipped design rows.  Coefficients the
    design does not identify get NaN standard errors, named in
    `diagnostics["not_identified"]`."""
    model = bind(spec, net, attrs)
    net.check_has_dyads()
    X, y, counts = _distinct_rows(*_dyad_design(model, net))
    direction = hull_direction((1.0 - 2.0 * y)[:, None] * X, np.zeros(model.p))
    if direction is not None:
        raise SeparationError(
            "pseudo-likelihood is non-estimable: complete separation along "
            f"direction {np.round(direction, 6)}",
            np.asarray(direction),
        )
    theta = np.zeros(model.p)
    converged = False
    iterations = 0
    for iterations in range(1, 101):
        eta = X @ theta
        mu = expit(eta)
        grad = X.T @ (counts * (y - mu))
        if float(np.linalg.norm(grad)) <= 1e-8:
            converged = True
            break
        w = counts * mu * (1.0 - mu)
        hess = (X * w[:, None]).T @ X
        try:
            step = np.linalg.solve(hess + 1e-12 * np.eye(model.p), grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        # near the optimum a Newton step gains less than the rounding error
        # of the sum, so a step may lose up to that much and still count
        base = _pseudo_loglik(X, y, counts, theta)
        floor = base - 1e-12 * abs(base)
        scale = 1.0
        while scale > 1e-12:
            cand = theta + scale * step
            if _pseudo_loglik(X, y, counts, cand) >= floor:
                theta = cand
                break
            scale *= 0.5
    if not converged:
        raise EstimationError(
            "pseudo-likelihood Newton did not converge in 100 iterations"
        )
    mu = expit(X @ theta)
    w = counts * mu * (1.0 - mu)
    # column-major as before: the layout picks the BLAS kernel, so the last bits
    XF = np.asfortranarray(X)
    cov, unknown = _covariance(
        (XF * w[:, None]).T @ XF, X, model.names,
        "the pseudo-likelihood does not identify coefficients whose change "
        "statistics are zero on every dyad or a combination of other columns",
    )
    diagnostics = {"iterations": iterations, "dyads": net.dyad_count, "design_rows": len(y)}
    if unknown:
        diagnostics["not_identified"] = unknown
    return FitResult(
        method="mple",
        names=list(model.names),
        theta=theta,
        covariance=cov,
        loglik=_pseudo_loglik(X, y, counts, theta),
        loglik_sd=0.0,
        diagnostics=diagnostics,
        formula=format_spec(spec),
    )


# ---------------------------------------------------------------------------
# Monte-Carlo maximum likelihood
# ---------------------------------------------------------------------------


# Monte-Carlo MLE settings on top of the sampler control.  Anchor `a`
# runs on the fraction min(1, RAMP * 2**a) of the sample size, and at
# most MAX_ANCHORS anchors run.  At full sample size the loop ends once
# the anchor step norm is at most 1e-4 or the step is within the
# Monte-Carlo noise of the estimate; a fit that has not ended by then
# raises NonConvergenceError.  The bridge has BRIDGE_LEGS legs of
# BRIDGE_DRAWS draws each, thinned every `control.interval // 4` proposals.
MAX_ANCHORS = 20
RAMP = 0.125
BRIDGE_LEGS = 12
BRIDGE_DRAWS = 1000


def _effective_sample_size(column: np.ndarray) -> float:
    """ESS from the initial-positive-sequence autocorrelation estimate."""
    x = np.asarray(column, dtype=np.float64)
    n = x.size
    x = x - x.mean()
    var = float(x @ x) / n
    if var <= 0.0 or n < 4:
        return float(n)
    size = 1
    while size < 2 * n:
        size <<= 1
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conj(f))[:n].real / n
    rho = acov / acov[0]
    total = 0.0
    m = 0
    while 2 * m + 1 < n:
        gamma = rho[2 * m] + rho[2 * m + 1]
        if gamma <= 0.0:
            break
        total += gamma
        m += 1
    tau = max(1.0, 2.0 * total - 1.0)
    return float(n / tau)


def _tilt(Sc: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Importance weights of the centred draws `Sc` tilted by `delta`, with
    the weighted mean and covariance of the draws."""
    scores = Sc @ delta
    w = np.exp(scores - logsumexp(scores))
    mean = w @ Sc
    centered = Sc - mean
    cov = (centered * w[:, None]).T @ centered
    return w, mean, cov


def _maximize_ratio(S: np.ndarray, s_obs: np.ndarray) -> np.ndarray:
    """Maximize d -> d @ s_obs - log mean exp(S @ d); returns the step from
    the anchor.  Concave; Newton with backtracking."""
    M, p = S.shape
    center = S.mean(axis=0)
    Sc = S - center
    bc = s_obs - center
    delta = np.zeros(p)

    def value(d):
        return float(d @ bc) - float(logsumexp(Sc @ d)) + math.log(M)

    tol = 1e-9 * max(1.0, float(np.linalg.norm(bc)))
    for _ in range(200):
        _, mean, cov = _tilt(Sc, delta)
        grad = bc - mean
        if float(np.linalg.norm(grad)) <= tol:
            break
        try:
            step = np.linalg.solve(cov + 1e-10 * np.eye(p), grad)
        except np.linalg.LinAlgError:
            step = grad
        base = value(delta)
        scale = 1.0
        while scale > 1e-14:
            cand = delta + scale * step
            if value(cand) >= base:
                delta = cand
                break
            scale *= 0.5
        else:
            break
    return delta


def _check_int_seed(control: SamplerControl) -> None:
    # a fit spawns its chains' seeds from one root, which numpy builds from an int
    if not isinstance(control.seed, (int, np.integer)):
        raise ValueError(f"a fit needs an int seed, got {type(control.seed).__name__}")


def _dyad_independent_start(
    model: BoundModel, net: BipartiteNetwork, attrs: Attributes, s_obs: np.ndarray
) -> tuple[np.ndarray, float]:
    """The bridge's start and its exact log-normalizer.

    The start is the MLE of the submodel of the dyad-independent terms on
    their slots and 0 elsewhere.  For that submodel the pseudo-likelihood
    is the likelihood, so `mple` gives it, and log kappa(start) is
    theta_I . s_obs[I] minus its log-likelihood.  With no such term, or
    when that MLE does not exist, the start is 0 and log kappa(0) is
    D log 2.
    """
    start = np.zeros(model.p)
    parts = [(t, ev) for t, ev in zip(model.spec.terms, model.evaluators) if ev.dyad_independent]
    if parts:
        index = np.concatenate([np.arange(ev.offset, ev.offset + ev.width) for _, ev in parts])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegeneracyWarning)
                fit = mple(ModelSpec(tuple(t for t, _ in parts)), net, attrs)
        except EstimationError:
            pass
        else:
            start[index] = fit.theta
            return start, float(fit.theta @ s_obs[index]) - fit.loglik
    return start, net.dyad_count * math.log(2.0)


def mcmcmle(
    spec: ModelSpec,
    net: BipartiteNetwork,
    attrs: Attributes,
    theta0=None,
    control: SamplerControl | None = None,
) -> FitResult:
    """Monte-Carlo maximum likelihood with re-anchored importance sampling.

    `control` sets the anchor chains; the anchor schedule and the bridge
    follow the module constants MAX_ANCHORS, RAMP, BRIDGE_LEGS and
    BRIDGE_DRAWS.  At each anchor, networks are simulated, the observed
    statistics are checked against the convex hull of the simulated cloud
    (on violation the anchor step is halved back toward the previous
    anchor), and the log-likelihood-ratio surrogate is maximized to give
    the next anchor.  The covariance comes from the inverse weighted
    statistic covariance at the estimate, taken from the last anchor
    inside the hull, NaN where its sample does not identify a coefficient
    (as in `mple`); the absolute log-likelihood from the bridge that starts
    at the MLE of the dyad-independent submodel (`_dyad_independent_start`).
    `control.seed` must be an int: every chain's seed is spawned from it.
    """
    control = control or SamplerControl()
    _check_int_seed(control)
    model = bind(spec, net, attrs)
    s_obs = model.stats(net)
    if theta0 is None:
        with warnings.catch_warnings():
            # an unidentified MPLE start says nothing of the fit; the final
            # sample's covariance judges identification below
            warnings.simplefilter("ignore", DegeneracyWarning)
            theta = mple(spec, net, attrs).theta
    else:
        theta = np.asarray(theta0, dtype=np.float64)
        if theta.shape != (model.p,):
            raise ValueError(f"theta0 has shape {theta.shape}, model dimension {model.p}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta0 must be finite")

    root = np.random.SeedSequence(control.seed)
    anchor_seeds = root.spawn(MAX_ANCHORS)
    bridge_root = root.spawn(1)[0]
    full = control.sample_size

    prev_theta = None
    hull_failures = 0
    # the last anchor inside the hull: its sample, step, weighted Fisher
    # information, weight ESS and per-statistic chain ESS
    last = None

    for a in range(MAX_ANCHORS):
        size = max(200, min(full, int(math.ceil(full * min(1.0, RAMP * 2**a)))))
        ctl = replace(control, sample_size=size, seed=anchor_seeds[a])
        sample = simulate(model, theta, net, ctl)
        S = sample.stats
        if hull_direction(S, s_obs) is not None:
            hull_failures += 1
            if hull_failures >= 5:
                raise NonConvergenceError(
                    f"observed statistics stayed outside the simulated hull after "
                    f"{hull_failures} re-anchors (anchor {np.round(theta, 4)})"
                )
            if prev_theta is not None:
                theta = 0.5 * (theta + prev_theta)
            continue
        delta = _maximize_ratio(S, s_obs)
        prev_theta = theta
        theta = theta + delta
        w, _, fisher = _tilt(S - S.mean(axis=0), delta)
        ess_w = 1.0 / float(np.sum(w**2))
        chain_ess = [_effective_sample_size(S[:, j]) for j in range(model.p)]
        last = (sample, delta, fisher, ess_w, chain_ess)
        if size < full:
            continue
        if float(np.linalg.norm(delta)) <= 1e-4:
            break
        # the stopping rule adds a ridge and reads the unrounded ESS, the
        # report neither; sharing either would move stopping decisions or
        # reported bits
        eff = max(1.0, ess_w * min(chain_ess) / S.shape[0])
        try:
            var_theta = np.diag(np.linalg.inv(fisher + 1e-10 * np.eye(model.p))) / eff
        except np.linalg.LinAlgError:
            var_theta = np.full(model.p, np.inf)
        if np.all(np.abs(delta) <= 2.0 * np.sqrt(np.clip(var_theta, 0.0, None))):
            break
    else:
        # only a full-size anchor inside the hull can stop the loop
        step = "no anchor inside the hull" if last is None else (
            f"last step norm {float(np.linalg.norm(last[1])):.3g}")
        raise NonConvergenceError(f"no convergence after {MAX_ANCHORS} anchors ({step})")

    sample, delta, fisher, ess_w, chain_ess = last
    S = sample.stats
    cov, unknown = _covariance(
        fisher, S - S.mean(axis=0), model.names,
        "the simulated sample does not identify coefficients whose statistics "
        "are constant or a combination of others",
    )

    start, log_kappa_start = _dyad_independent_start(model, net, attrs, s_obs)
    loglik, loglik_sd = _bridge_loglik(
        model, net, theta, s_obs, control, bridge_root, start, log_kappa_start
    )

    ess = {name: round(e, 1) for name, e in zip(model.names, chain_ess)}
    draws = S.shape[0]
    # Monte-Carlo noise of the estimate itself: inverse information scaled
    # by the effective number of importance draws
    ess_eff = max(1.0, ess_w * min(ess.values()) / draws)
    mc_sd = np.sqrt(np.clip(np.diag(cov), 0.0, None) / ess_eff)
    diagnostics = {
        "seed": control.seed,
        "rng": RNG_ALGORITHM,
        "anchors": a + 1,
        "hull_failures": hull_failures,
        "final_step_norm": float(np.linalg.norm(delta)),
        "acceptance_rate": round(sample.acceptance_rate, 4),
        "ess": ess,
        "weight_ess": round(ess_w, 1),
        "ess_eff": round(ess_eff, 1),
        "mc_sd": [float(s) for s in mc_sd],
        "sample_size": draws,
        "control": " ".join(
            f"{f.name}={getattr(control, f.name)}" for f in fields(control) if f.name != "seed"
        ),
    }
    if unknown:
        diagnostics["not_identified"] = unknown
    return FitResult(
        method="mcmcmle",
        names=list(model.names),
        theta=theta,
        covariance=cov,
        loglik=loglik,
        loglik_sd=loglik_sd,
        diagnostics=diagnostics,
        formula=format_spec(spec),
    )


def _bridge_loglik(
    model: BoundModel,
    net: BipartiteNetwork,
    theta_hat: np.ndarray,
    s_obs: np.ndarray,
    control: SamplerControl,
    seed_root: np.random.SeedSequence,
    start: np.ndarray,
    log_kappa_start: float,
) -> tuple[float, float]:
    """Absolute log-likelihood at theta_hat via a straight bridge from
    `start`, whose log-normalizer `log_kappa_start` is exact.

    Each leg estimates one normalizer ratio from draws at the leg's left
    endpoint, with a batch-means variance that accounts for chain
    autocorrelation.
    """
    interval = max(1, control.interval // 4)
    seeds = seed_root.spawn(BRIDGE_LEGS)
    t = np.linspace(0.0, 1.0, BRIDGE_LEGS + 1)[:, None]
    path = (1.0 - t) * start[None, :] + t * theta_hat[None, :]
    total = 0.0
    variance = 0.0
    current = net
    for leg in range(BRIDGE_LEGS):
        th_a, th_b = path[leg], path[leg + 1]
        ctl = replace(
            control,
            burn_in=None if leg == 0 else max(256, 2 * interval),
            interval=interval,
            sample_size=BRIDGE_DRAWS,
            seed=seeds[leg],
        )
        sample = simulate(model, th_a, current, ctl)
        current = sample.final_network
        x = sample.stats @ (th_b - th_a)
        shift = float(x.max())
        r = np.exp(x - shift)
        mean_r = float(r.mean())
        total += shift + math.log(mean_r)
        nb = min(25, max(2, r.size // 40))
        bs = r.size // nb
        batch_means = r[: nb * bs].reshape(nb, bs).mean(axis=1)
        var_mean = float(batch_means.var(ddof=1)) / nb
        variance += var_mean / mean_r**2
    loglik = float(theta_hat @ s_obs) - log_kappa_start - total
    return loglik, math.sqrt(variance)


# ---------------------------------------------------------------------------
# profile likelihood over the homophily exponent
# ---------------------------------------------------------------------------


@dataclass
class ProfilePoint:
    kind: str  # "alpha" or "beta"
    value: float
    fit: FitResult | None
    error: str | None = None


def profile(
    template: ModelSpec,
    which: str,
    grid,
    net: BipartiteNetwork,
    attrs: Attributes,
    control: SamplerControl | None = None,
    method: str = "mcmcmle",
) -> list[ProfilePoint]:
    """One fit per grid value of the unbound nodematch exponent.

    Under `method="mcmcmle"` each point is fitted with `control`, its seed
    replaced by one drawn for that point from `control.seed`.  An
    estimation failure (an EstimationError or a singular linear system) is
    recorded on the point and the grid continues; program faults, such as
    an IndexError or a drifted chain's RuntimeError, propagate.  Each
    point's warnings are raised again once it ends, in grid order, with the
    point appended to the message, e.g. " (alpha=0.3)".
    All log-likelihoods are absolute (each bridge starts where the
    normalizer is exact), so they are comparable across points and across
    exponent kinds.  `control.seed` must be an int.
    """
    if template.unbound_index() is None:
        raise ValueError(
            "profile template must contain exactly one nodematch term "
            "without a bound exponent"
        )
    if method not in ("mple", "mcmcmle"):
        raise ValueError(f"method must be 'mple' or 'mcmcmle', got {method!r}")
    control = control or SamplerControl()
    _check_int_seed(control)
    grid = sorted(float(g) for g in grid)
    # one seed branch per (exponent kind, grid point), all off the root seed
    kind_root = np.random.SeedSequence(
        control.seed, spawn_key=(0 if which == "alpha" else 1,)
    )
    point_seeds = kind_root.spawn(len(grid))
    points: list[ProfilePoint] = []
    for value, seed_seq in zip(grid, point_seeds):
        spec_g = template.bind_exponent(which, value)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                if method == "mple":
                    fit = mple(spec_g, net, attrs)
                else:
                    point_seed = int(seed_seq.generate_state(1, np.uint64)[0] >> 1)
                    fit = mcmcmle(spec_g, net, attrs, control=replace(control, seed=point_seed))
                point = ProfilePoint(which, value, fit)
            except (EstimationError, np.linalg.LinAlgError) as exc:
                point = ProfilePoint(which, value, None, f"{type(exc).__name__}: {exc}")
        points.append(point)
        for warning in caught:
            warnings.warn(f"{warning.message} ({which}={value:g})", warning.category, stacklevel=2)
    return points
