"""Parameter estimation: pseudo-likelihood, Monte-Carlo MLE, profiles.

The pseudo-likelihood estimator is a Newton logistic fit of dyad states
on change statistics.  The Monte-Carlo MLE re-anchors an importance-
sampled log-likelihood-ratio surrogate until the anchor stops moving,
then reports absolute log-likelihood through a bridge on the last anchor's
chain, from the estimate down to the MLE of the dyad-independent submodel
(whose normalizer is known in closed form), so profile curves over
different exponents share one reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.special import erfc, expit, logsumexp

from .formula import format_spec
from .graph import Attributes, BipartiteNetwork
from .oracle import EstimationError, hull_direction, newton_ascent, tilt
from .sampler import RNG_ALGORITHM, Chain, SamplerControl, _generator, simulate
from .terms import BoundModel, ModelSpec, bind, format_exponent


class SeparationError(EstimationError):
    """The logistic pseudo-likelihood is maximized at infinity; `direction`
    is a separating direction in statistic space."""

    def __init__(self, message: str, direction: np.ndarray):
        super().__init__(message)
        self.direction = direction


class NonConvergenceError(EstimationError):
    """The Monte-Carlo MLE ran out of anchors; the message gives the last
    step norm and how many samples missed the observed statistics."""


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


def _covariance(info: np.ndarray, rows: np.ndarray, names: list[str]) -> tuple[np.ndarray, list[str]]:
    """Covariance from the information `info` built on `rows`: the inverse
    of `info` when `rows` has full column rank.  Otherwise a statistic in
    the null space (a zero column, or one that others add up to) is not
    identified: its row and column are NaN and its name is returned.  The
    rest invert `info` on its other eigenvectors, as any full-rank
    reparametrization would."""
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
    return 0.5 * (cov + cov.T), [name for name, bad in zip(names, lost) if bad]


# ---------------------------------------------------------------------------
# maximum pseudo-likelihood
# ---------------------------------------------------------------------------


def _dyad_design(model: BoundModel, net: BipartiteNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Change statistics `X` (one row per dyad) and dyad states `y`.

    Rows run over mode-1 nodes outer and mode-2 nodes inner, the order of
    `biadjacency().ravel()`.  Column j at dyad (i, k) starts as
    `node_columns[j, i] + node_columns[j, k]`, the node-level terms' part,
    0.0 elsewhere; each dyad-dependent evaluator then fills its columns for
    every dyad at once from the biadjacency matrix.  `X` is column-major,
    so that each column is one contiguous broadcast sum.
    """
    B = net.biadjacency().astype(np.float64)
    cols, n1 = model.node_columns, model.n1
    X = (cols[:, 1 : n1 + 1, None] + cols[:, None, n1 + 1 :]).reshape(model.p, B.size).T
    for ev in model.dependent:
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

    def slope(theta):
        mu = expit(X @ theta)
        w = counts * mu * (1.0 - mu)
        return X.T @ (counts * (y - mu)), (X * w[:, None]).T @ X

    theta, iterations = newton_ascent(
        lambda theta: _pseudo_loglik(X, y, counts, theta), slope, np.zeros(model.p),
        tol=1e-8, max_iter=100, ridge=1e-12,
    )
    if not iterations:
        raise EstimationError("pseudo-likelihood Newton did not converge in 100 iterations")
    mu = expit(X @ theta)
    w = counts * mu * (1.0 - mu)
    # column-major as before: the layout picks the BLAS kernel, so the last bits
    XF = np.asfortranarray(X)
    cov, unknown = _covariance((XF * w[:, None]).T @ XF, X, model.names)
    diagnostics = {"iterations": iterations, "dyads": net.dyad_count, "design_rows": len(y)}
    if unknown:
        warnings.warn(DegeneracyWarning(
            "the pseudo-likelihood does not identify coefficients whose change statistics "
            "are zero on every dyad or a combination of other columns: " + ", ".join(unknown)
        ))
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
# runs on the fraction min(1, RAMP * 2**a) of the sample size, raised to
# at least 200 draws; a fit that has not stopped after MAX_ANCHORS
# anchors raises NonConvergenceError; STEP_SHARE and WEIGHT_ESS_SHARE set
# its step and stop (see `mcmcmle`).  The bridge has BRIDGE_LEGS legs of
# BRIDGE_DRAWS draws each, thinned every `control.interval // 4` proposals.
MAX_ANCHORS = 20
STEP_SHARE = 0.75
WEIGHT_ESS_SHARE = 0.5
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


def _maximize_ratio(S: np.ndarray, s_obs: np.ndarray) -> np.ndarray:
    """Maximize d -> d @ s_obs - log mean exp(S @ d); returns the step from
    the anchor.  Concave; Newton with backtracking."""
    M, p = S.shape
    center = S.mean(axis=0)
    Sc = S - center
    bc = s_obs - center

    def value(d):
        return float(d @ bc) - float(logsumexp(Sc @ d)) + math.log(M)

    def slope(d):
        _, mean, cov = tilt(Sc, d)
        return bc - mean, cov

    delta, _ = newton_ascent(
        value, slope, np.zeros(p),
        tol=1e-9 * max(1.0, float(np.linalg.norm(bc))), max_iter=200, ridge=1e-10,
    )
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

    `control` sets the anchor chains; the rest follows the module
    constants.  Every anchor draws at least 200 networks, so a
    `control.sample_size` below 200 draws 200 per anchor and
    `diagnostics["sample_size"]` reports 200.  Each anchor simulates at
    theta and maximizes the log-likelihood-ratio surrogate toward a target
    xi = mean + gamma (s_obs - mean) to give the next theta, with the
    step-length rule of Hummel, Hunter and Handcock (JCGS 2012): gamma is 1
    when s_obs lies in the hull of the sample, else (a hull miss, counted
    in `diagnostics["hull_failures"]`) STEP_SHARE of the largest multiple
    of 1/64 that keeps xi in it.  A full-size anchor with gamma 1 ends the
    loop when its step's importance weights keep an ESS of at least
    WEIGHT_ESS_SHARE of its draws and no coefficient stepped by more than
    twice the Monte-Carlo sd that the fit reports as `diagnostics["mc_sd"]`
    (or the step norm is at most 1e-4).  The covariance comes from the
    inverse weighted statistic covariance at the estimate, taken from that
    anchor, NaN where its sample does not identify a coefficient (as in
    `mple`); the absolute log-likelihood from the bridge down to the MLE of
    the dyad-independent submodel, on a chain continuing the last anchor's.
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

    hull_failures = 0
    for a in range(MAX_ANCHORS):
        size = max(200, min(full, int(math.ceil(full * min(1.0, RAMP * 2**a)))))
        ctl = replace(control, sample_size=size, seed=anchor_seeds[a])
        sample = simulate(model, theta, net, ctl)
        S = sample.stats
        center = S.mean(axis=0)
        gamma, target = 1.0, s_obs
        # a sample of one row has no interior, so it misses s_obs too
        if not np.any(S != S[0]) or hull_direction(S, s_obs) is not None:
            hull_failures += 1
            reach = 0.0
            for k in range(1, 7):
                if hull_direction(S, center + (reach + 0.5**k) * (s_obs - center)) is None:
                    reach += 0.5**k
            gamma = STEP_SHARE * reach
            target = center + gamma * (s_obs - center)
        delta = _maximize_ratio(S, target)
        theta = theta + delta
        Sc = S - center
        w, _, fisher = tilt(Sc, delta)
        ess_w = 1.0 / float(np.sum(w**2))
        ess = {name: round(_effective_sample_size(S[:, j]), 1) for j, name in enumerate(model.names)}
        cov, unknown = _covariance(fisher, Sc, model.names)
        # Monte-Carlo noise of the estimate itself: inverse information
        # scaled by the effective number of importance draws
        ess_eff = max(1.0, ess_w * min(ess.values()) / size)
        mc_sd = np.sqrt(np.clip(np.diag(cov), 0.0, None) / ess_eff)
        # a NaN sd, an unidentified coefficient, does not block the stop
        if size >= full and gamma == 1.0 and ess_w >= WEIGHT_ESS_SHARE * size and (
            float(np.linalg.norm(delta)) <= 1e-4 or not np.any(np.abs(delta) > 2.0 * mc_sd)
        ):
            break
    else:
        raise NonConvergenceError(
            f"no convergence after {MAX_ANCHORS} anchors (last step norm {float(np.linalg.norm(delta)):.3g}; "
            f"s_obs outside the sample's hull at {hull_failures} of them)"
        )

    if unknown:
        warnings.warn(DegeneracyWarning(
            "the simulated sample does not identify coefficients whose statistics "
            "are constant or a combination of others: " + ", ".join(unknown)
        ))

    # at theta-hat after one autocorrelation time of the stopping anchor's sample
    chain = Chain(sample.final_network, model, theta, _generator(bridge_root))
    chain.run(control.interval * math.ceil(size / min(ess.values())))
    start, log_kappa_start = _dyad_independent_start(model, net, attrs, s_obs)
    loglik, loglik_sd = _bridge_loglik(chain, theta, s_obs, control.interval, start, log_kappa_start)

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
        "sample_size": sample.stats.shape[0],
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
    chain: Chain, theta_hat: np.ndarray, s_obs: np.ndarray, interval: int, start: np.ndarray,
    log_kappa_start: float,
) -> tuple[float, float]:
    """Absolute log-likelihood at theta_hat via a straight bridge from
    theta_hat down to `start`, whose log-normalizer `log_kappa_start` is
    exact, on one `chain` burnt in at theta_hat.

    Each leg draws at its theta_hat end, theta_hi, every `interval // 4`
    proposals, and estimates log kappa(theta_lo) - log kappa(theta_hi) as
    log mean exp((theta_lo - theta_hi) . s), with the variance of the
    ratios over their initial-positive-sequence ESS, as for the anchors.
    After each theta change the chain runs one autocorrelation time of the
    leg before: interval * ceil(draws / least per-statistic ESS) proposals.
    """
    interval = max(1, interval // 4)
    t = np.linspace(0.0, 1.0, BRIDGE_LEGS + 1)[:, None]
    path = (1.0 - t) * start[None, :] + t * theta_hat[None, :]
    total, variance, burn_in = 0.0, 0.0, 0
    for th_hi, th_lo in zip(path[:0:-1], path[-2::-1]):
        chain.set_theta(th_hi)
        chain.run(burn_in)
        S = chain.sample(BRIDGE_DRAWS, interval)
        burn_in = interval * math.ceil(BRIDGE_DRAWS / min(map(_effective_sample_size, S.T)))
        x = S @ (th_lo - th_hi)
        shift = float(x.max())
        r = np.exp(x - shift)
        mean_r = float(r.mean())
        total += shift + math.log(mean_r)
        variance += float(r.var()) / _effective_sample_size(r) / mean_r**2
    loglik = float(theta_hat @ s_obs) - log_kappa_start + total
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


def bind_grid(template: ModelSpec, which: str, grid) -> list[ModelSpec]:
    """`template` with its one unbound nodematch exponent `which` set to
    each value of `grid`, in grid order.  `profile` calls it before its
    first fit and `bipergm profile` before its first grid, so that a value
    outside [0, 1], or NaN, raises ValueError before any fit runs."""
    if template.unbound_index() is None:
        raise ValueError(
            "profile template must contain exactly one nodematch term "
            "without a bound exponent"
        )
    return [template.bind_exponent(which, value) for value in grid]


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
    replaced by one spawned from `control.seed` for the point's rank in
    the sorted grid, not for its value: 0.5 alone and 0.5 in the grid
    0, 0.1, ..., 1 get different seeds, and so different fits.  An
    estimation failure (an EstimationError or a singular linear system) is
    recorded on the point and the grid continues; program faults, such as
    an IndexError or a drifted chain's RuntimeError, propagate.  Each
    point's warnings are raised again once it ends, in grid order, with the
    point appended to the message, e.g. " (alpha=0.3)".
    All log-likelihoods are absolute (each bridge starts where the
    normalizer is exact), so they are comparable across points and across
    exponent kinds.  `control.seed` must be an int.
    """
    grid = sorted(float(g) for g in grid)
    specs = bind_grid(template, which, grid)
    if method not in ("mple", "mcmcmle"):
        raise ValueError(f"method must be 'mple' or 'mcmcmle', got {method!r}")
    control = control or SamplerControl()
    _check_int_seed(control)
    # one seed branch per (exponent kind, grid point), all off the root seed
    kind_root = np.random.SeedSequence(
        control.seed, spawn_key=(0 if which == "alpha" else 1,)
    )
    point_seeds = kind_root.spawn(len(grid))
    points: list[ProfilePoint] = []
    for value, spec_g, seed_seq in zip(grid, specs, point_seeds):
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
            point_text = f"{which}={format_exponent(value)}"
            warnings.warn(f"{warning.message} ({point_text})", warning.category, stacklevel=2)
    return points
