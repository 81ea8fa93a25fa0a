import hashlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from bipergm import (
    AttributeTable,
    Attributes,
    Chain,
    DegeneracyWarning,
    ExactModel,
    ModelSpec,
    ModelTerm,
    NonConvergenceError,
    SamplerControl,
    SeparationError,
    bind,
    contrast,
    exact_loglik,
    exact_mle,
    format_spec,
    from_edge_list,
    mcmcmle,
    mple,
    parse,
    profile,
)
from bipergm import estimate
from bipergm.estimate import (
    FitResult,
    _dyad_design,
    _dyad_independent_start,
    _effective_sample_size,
    _maximize_ratio,
    significance_stars,
    wald_p_value,
)
from bipergm.io import load_attributes, load_network

import reference as ref
from conftest import (
    DESIGN_CASES,
    design_case,
    every_term_kind,
    make_attrs1,
    random_attrs,
    random_net,
)


def edges_spec():
    return ModelSpec((ModelTerm(kind="edges"),))


def small_control(sample_size=20_000, seed=7, interval=8, burn_in=4096):
    return SamplerControl(burn_in=burn_in, interval=interval, sample_size=sample_size, seed=seed)


# ---------------------------------------------------------------------------
# pseudo-likelihood
# ---------------------------------------------------------------------------


class TestMple:
    def test_edges_only_is_logit_density(self, fig2_net, fig2_attrs):
        fit = mple(edges_spec(), fig2_net, fig2_attrs)
        assert fit.theta[0] == pytest.approx(math.log(5.0), abs=1e-8)

    @staticmethod
    def assert_separated(spec, net, attrs):
        # every dyad on the closed side of the reported direction, one strictly
        with pytest.raises(SeparationError, match="direction") as info:
            mple(spec, net, attrs)
        X, y = _dyad_design(bind(spec, net, attrs), net)
        margin = (2.0 * y - 1.0) * (X @ info.value.direction)
        assert margin.min() >= -1e-9
        assert margin.max() > 1e-9

    def test_empty_network_is_separated(self, fig2_attrs):
        self.assert_separated(edges_spec(), from_edge_list(3, 2, []), fig2_attrs)

    def test_full_network_is_separated(self):
        net = from_edge_list(2, 2, [(1, 3), (1, 4), (2, 3), (2, 4)])
        self.assert_separated(edges_spec(), net, Attributes())

    def test_separated_where_no_single_statistic_separates(self):
        # edges exactly at the nodes with x > 0.5: both columns take both
        # signs on the sign-flipped rows, so the LP must find the direction
        x = [0.2, 0.7, 0.4, 0.9, 0.6]
        table = AttributeTable(1, len(x))
        table.add_numeric("x", x)
        dyads = [(i, k) for i in range(1, 6) for k in range(6, 9) if x[i - 1] > 0.5]
        net = from_edge_list(5, 3, dyads)
        spec = ModelSpec((ModelTerm(kind="edges"), ModelTerm(kind="b1cov", attribute="x")))
        self.assert_separated(spec, net, Attributes(mode1=table))

    def test_all_zero_column_is_not_identified(self):
        # at alpha=0 every b1nodematch change statistic on this network is 0
        net = from_edge_list(3, 3, OBS_EDGES)
        attrs = make_attrs1(["a", "a", "b"])
        spec = ModelSpec(
            (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", alpha=0.0))
        )
        with pytest.warns(DegeneracyWarning, match="b1nodematch.group"):
            fit = mple(spec, net, attrs)
        assert fit.diagnostics["not_identified"] == ["b1nodematch.group"]
        assert fit.theta[1] == 0.0
        assert math.isnan(fit.std_errors[1]) and math.isnan(fit.p_values[1])
        assert np.isnan(fit.covariance[1]).all() and np.isnan(fit.covariance[:, 1]).all()
        # the edges coefficient is what the model without the term gives
        alone = mple(edges_spec(), net, attrs)
        assert "not_identified" not in alone.diagnostics
        assert fit.theta[0] == pytest.approx(alone.theta[0], abs=1e-12)
        assert fit.std_errors[0] == pytest.approx(alone.std_errors[0], rel=1e-12)

    def test_collinear_columns_are_not_identified(self):
        # every dyad adds 1 to `edges` and to one `b2sociality` statistic, so
        # those 16 columns are linearly dependent; the rest stay identified
        rng = np.random.default_rng(5)
        B = rng.random((30, 15)) < 0.3
        net = from_edge_list(30, 15, [(i + 1, 31 + k) for i, k in zip(*np.nonzero(B))])
        attrs = make_attrs1([f"g{g}" for g in rng.integers(0, 3, size=30)])
        spec = parse('edges + b1factor("group") + b2sociality + b1nodematch("group", alpha = 0.5)')
        with pytest.warns(DegeneracyWarning, match="edges, b2sociality.31, ") as caught:
            fit = mple(spec, net, attrs)
        assert len(caught) == 1
        lost = ["edges"] + [f"b2sociality.{k}" for k in range(31, 46)]
        assert fit.diagnostics["not_identified"] == lost
        unknown = np.isin(fit.names, lost)
        assert np.isnan(fit.std_errors[unknown]).all() and np.isnan(fit.p_values[unknown]).all()
        # the identified coefficients get what a full-rank parametrization of
        # the same model, without `edges`, gives them
        full = mple(parse('b1factor("group") + b2sociality + b1nodematch("group", alpha = 0.5)'),
                    net, attrs)
        assert "not_identified" not in full.diagnostics
        same = [full.names.index(name) for name in np.array(fit.names)[~unknown]]
        assert fit.std_errors[~unknown] == pytest.approx(full.std_errors[same], rel=1e-6)
        assert fit.theta[~unknown] == pytest.approx(full.theta[same], abs=1e-6)

    def test_matches_external_logistic_fit(self):
        sklearn = pytest.importorskip("sklearn.linear_model")
        rng = np.random.default_rng(3)
        net = random_net(rng, 6, 4, density=0.5)
        attrs = random_attrs(rng, 6, 4)
        spec = ModelSpec((ModelTerm(kind="edges"), ModelTerm(kind="b1factor", attribute="group")))
        fit = mple(spec, net, attrs)
        # independent reference fit on the exported dyad/change-stat table
        X, y = _dyad_design(bind(spec, net, attrs), net)
        clf = sklearn.LogisticRegression(
            penalty=None, fit_intercept=False, tol=1e-12, max_iter=10_000
        )
        clf.fit(X, y)
        assert np.max(np.abs(fit.theta - clf.coef_[0])) <= 1e-6

    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_equals_exact_mle_for_dyadic_independent_specs(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, 3, 4, density=0.5)
        if net.edge_count in (0, 12):
            net.toggle(1, 4)
        attrs = random_attrs(rng, 3, 4)
        spec = ModelSpec(
            (
                ModelTerm(kind="edges"),
                ModelTerm(kind="b1cov", attribute="x"),
                ModelTerm(kind="b1factor", attribute="group"),
            )
        )
        oracle_model = ExactModel(spec, attrs, 3, 4)
        theta_star = exact_mle(oracle_model, net)
        fit = mple(spec, net, attrs)
        assert np.max(np.abs(fit.theta - theta_star)) <= 1e-6
        # for dyadic-independent models the pseudo-likelihood is the likelihood
        assert fit.loglik == pytest.approx(
            exact_loglik(oracle_model, theta_star, net), abs=1e-7
        )

    def test_covariance_is_symmetric_psd(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, 6, 4, density=0.5)
        attrs = random_attrs(rng, 6, 4)
        spec = ModelSpec((ModelTerm(kind="edges"), ModelTerm(kind="b1cov", attribute="x")))
        fit = mple(spec, net, attrs)
        assert np.allclose(fit.covariance, fit.covariance.T)
        assert np.linalg.eigvalsh(fit.covariance).min() >= -1e-10


# ---------------------------------------------------------------------------
# the array-built design against the per-dyad change statistics
# ---------------------------------------------------------------------------


def per_dyad_design(model, net):
    """The reference design: `model.delta` at every dyad, mode-1 node outer."""
    X = np.empty((net.dyad_count, model.p))
    y = np.empty(net.dyad_count)
    d = 0
    for i in range(1, net.n1 + 1):
        for k in range(net.n1 + 1, net.n + 1):
            X[d] = model.delta(net, i, k)
            y[d] = 1.0 if net.has_edge(i, k) else 0.0
            d += 1
    return X, y


# node-centric columns sum dpw terms in BLAS order rather than neighbour-set
# order, so they may differ in the last bits; every other column is exact
ALPHA_RTOL = 1e-12


@pytest.mark.parametrize("shape,fill", DESIGN_CASES)
@pytest.mark.parametrize("which", ["alpha", "beta"])
@pytest.mark.parametrize("exponent", [0.0, 0.5, 1.0])
def test_dyad_design_equals_per_dyad_change_statistics(shape, fill, which, exponent):
    net, attrs = design_case(shape, fill)
    model = bind(every_term_kind(attrs, which, exponent), net, attrs)
    X, y = _dyad_design(model, net)
    X_ref, y_ref = per_dyad_design(model, net)
    assert np.array_equal(y, y_ref)
    assert X.shape == X_ref.shape
    node_centric = np.zeros(model.p, dtype=bool)
    for ev in model.evaluators:
        node_centric[ev.offset : ev.offset + ev.width] = getattr(ev, "node_centric", False)
    assert np.array_equal(X[:, ~node_centric], X_ref[:, ~node_centric])
    np.testing.assert_allclose(X[:, node_centric], X_ref[:, node_centric], rtol=ALPHA_RTOL, atol=0.0)


def newton_on_every_dyad(X, y):
    """Logistic Newton fit on the uncompressed rows, with full steps and no
    line search: theta, inverse negative Hessian, pseudo-log-likelihood."""
    theta = np.zeros(X.shape[1])
    for _ in range(100):
        eta = X @ theta
        mu = expit(eta)
        grad = X.T @ (y - mu)
        hess = (X * (mu * (1.0 - mu))[:, None]).T @ X
        if float(np.linalg.norm(grad)) <= 1e-10:
            loglik = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
            return theta, np.linalg.inv(hess), loglik
        theta = theta + np.linalg.solve(hess, grad)
    raise AssertionError("reference Newton solve did not converge")


def test_mple_on_distinct_rows_equals_fit_on_every_dyad():
    rng = np.random.default_rng(5)
    n1, n2 = 14, 10
    net = random_net(rng, n1, n2, density=0.35)
    attrs = random_attrs(rng, n1, n2, levels=("a", "b", "c"))
    spec = ModelSpec(
        (
            ModelTerm(kind="edges"),
            ModelTerm(kind="b1cov", attribute="x"),
            ModelTerm(kind="b2nodematch", attribute="kind", alpha=0.5, diff=True),
        )
    )
    X, y = _dyad_design(bind(spec, net, attrs), net)
    theta, cov, loglik = newton_on_every_dyad(X, y)
    fit = mple(spec, net, attrs)
    assert np.max(np.abs(fit.theta - theta)) <= 1e-10
    assert fit.loglik == pytest.approx(loglik, rel=1e-9)
    assert np.max(np.abs(fit.covariance - cov)) <= 1e-9 * np.max(np.abs(cov))
    assert fit.diagnostics["dyads"] == n1 * n2
    distinct = {tuple(row) for row in np.column_stack([X, y]).tolist()}
    assert fit.diagnostics["design_rows"] == len(distinct) < n1 * n2


@pytest.mark.parametrize(
    "seed,which,exponent",
    [(2, "beta", 0.1), (9, "alpha", 0.0), (0, "alpha", 0.1), (3, "alpha", 0.2)],
)
def test_mple_converges_where_a_newton_step_gains_less_than_rounding(seed, which, exponent):
    # near these optima a full Newton step lowers the computed
    # pseudo-log-likelihood by rounding alone; a line search that rejects
    # it halves the step until the fit stalls above the gradient tolerance
    rng = np.random.default_rng(seed)
    B = rng.random((30, 15)) < 0.2
    groups = rng.integers(0, 3, size=30)
    net = from_edge_list(30, 15, [(i + 1, 31 + k) for i, k in zip(*np.nonzero(B))])
    attrs = make_attrs1([f"g{g}" for g in groups])
    spec = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", **{which: exponent}))
    )
    fit = mple(spec, net, attrs)
    theta, _, _ = newton_on_every_dyad(*_dyad_design(bind(spec, net, attrs), net))
    assert np.max(np.abs(fit.theta - theta)) <= 1e-10


# ---------------------------------------------------------------------------
# contrasts, stars, diagnostics
# ---------------------------------------------------------------------------


def test_mple_converges_to_a_theta_of_large_norm():
    # mode-2 node k (0-based) has degree 1 + k % 3, tied to the first
    # mode-1 nodes; each b2sociality coefficient is logit(d_k / 400), so the
    # MLE is finite and has norm 41.9
    n1, n2 = 400, 60
    degrees = [1 + k % 3 for k in range(n2)]
    net = from_edge_list(
        n1, n2, [(i, n1 + 1 + k) for k, d in enumerate(degrees) for i in range(1, d + 1)]
    )
    fit = mple(ModelSpec((ModelTerm(kind="b2sociality"),)), net, Attributes())
    expected = np.array([ref.logit(d / n1) for d in degrees])
    assert np.linalg.norm(expected) > 40.0
    assert np.max(np.abs(fit.theta - expected)) <= 1e-9


def test_contrast_single_coordinate(fig2_net, fig2_attrs):
    fit = mple(edges_spec(), fig2_net, fig2_attrs)
    est, se = contrast(fit, [1.0])
    assert est == pytest.approx(fit.theta[0])
    assert se == pytest.approx(fit.std_errors[0])
    est0, se0 = contrast(fit, [0.0])
    assert (est0, se0) == (0.0, 0.0)


def test_contrast_difference_pattern():
    cov = np.array([[0.4, 0.1], [0.1, 0.5]])
    fit = FitResult(
        method="mple",
        names=["b2nodematch.gender.Female", "b2nodematch.gender.Male"],
        theta=np.array([3.75, 2.90]),
        covariance=cov,
        loglik=0.0,
        loglik_sd=0.0,
    )
    est, se = contrast(fit, [1.0, -1.0])
    assert est == pytest.approx(0.85)
    assert se == pytest.approx(math.sqrt(0.4 + 0.5 - 2 * 0.1))
    with pytest.raises(ValueError, match="shape"):
        contrast(fit, [1.0])


def test_significance_stars():
    assert significance_stars(0.2) == ""
    assert significance_stars(0.01) == "*"
    assert significance_stars(5e-4) == "**"
    assert significance_stars(5e-5) == "***"


def test_wald_p_value_two_sided():
    assert wald_p_value(0.0, 1.0) == pytest.approx(1.0)
    assert wald_p_value(1.96, 1.0) == pytest.approx(0.05, abs=2e-3)
    assert wald_p_value(1.0, 0.0) == 0.0


def test_effective_sample_size():
    rng = np.random.default_rng(0)
    iid = rng.normal(size=4000)
    assert _effective_sample_size(iid) == pytest.approx(4000, rel=0.15)
    walk = np.repeat(rng.normal(size=200), 20)  # strong positive correlation
    assert _effective_sample_size(walk) < 600


def test_summary_contains_stars_and_loglik(fig2_net, fig2_attrs):
    fit = mple(edges_spec(), fig2_net, fig2_attrs)
    assert fit.formula == format_spec(edges_spec()) == "edges"
    text = fit.summary()
    assert "edges" in text and "log-likelihood" in text and "Wald" in text


def test_summary_separates_values_wider_than_their_column():
    fit = FitResult("mple", ["edges"], np.array([-12345678.9]), np.array([[1e16]]), 0.0, 0.0)
    row = fit.summary().splitlines()[2]
    assert row.split() == ["edges", "-12345678.9000", "100000000.0000"]
    # values that fit their column print as they always did
    fit = FitResult("mple", ["edges"], np.array([-0.5]), np.array([[0.04]]), 0.0, 0.0)
    assert fit.summary().splitlines()[2] == f"{'edges':<12}{-0.5:>12.4f}{0.2:>12.4f}  *"


# ---------------------------------------------------------------------------
# Monte-Carlo MLE
# ---------------------------------------------------------------------------


# a 3x3 observation whose MLE is finite for every exponent on the grid
OBS_EDGES = [(1, 4), (1, 5), (1, 6), (2, 5), (2, 6), (3, 4)]

# a 3x3 observation with moderate exact MLEs under both exponent models,
# used for the oracle-recovery checks
MODERATE_EDGES = [(1, 4), (1, 5), (2, 4), (2, 6), (3, 6)]


@pytest.fixture
def obs_net():
    return from_edge_list(3, 3, OBS_EDGES)


@pytest.fixture
def moderate_net():
    return from_edge_list(3, 3, MODERATE_EDGES)


@pytest.fixture
def obs_attrs():
    return make_attrs1(["a", "a", "b"])


@pytest.mark.parametrize("which,value", [("alpha", 0.5), ("beta", 0.5)])
def test_mcmcmle_recovers_oracle_mle(moderate_net, obs_attrs, which, value):
    spec = ModelSpec(
        (
            ModelTerm(kind="edges"),
            ModelTerm(kind="b1nodematch", attribute="group", **{which: value}),
        )
    )
    oracle_model = ExactModel(spec, obs_attrs, 3, 3)
    theta_star = exact_mle(oracle_model, moderate_net)
    fit = mcmcmle(spec, moderate_net, obs_attrs, control=small_control())
    assert np.max(np.abs(fit.theta - theta_star)) <= 0.1
    # reported log-likelihood against the exact one at the estimate
    exact_ll = exact_loglik(oracle_model, fit.theta, moderate_net)
    assert abs(fit.loglik - exact_ll) <= 3.0 * fit.loglik_sd
    assert np.allclose(fit.covariance, fit.covariance.T)
    assert np.linalg.eigvalsh(fit.covariance).min() >= -1e-10


def test_mcmcmle_agrees_with_mple_when_dyads_independent(obs_net):
    attrs = make_attrs1(["a", "a", "b"], numeric=("x", [0.8, -0.4, 1.1]))
    spec = ModelSpec((ModelTerm(kind="edges"), ModelTerm(kind="b1cov", attribute="x")))
    pl = mple(spec, obs_net, attrs)  # equals the MLE under dyad independence
    fit = mcmcmle(spec, obs_net, attrs, control=small_control(seed=17))
    mc_sd = np.asarray(fit.diagnostics["mc_sd"])
    assert np.all(np.abs(fit.theta - pl.theta) <= 3.0 * mc_sd + 0.01)


def test_first_step_from_oracle_mle_is_tiny(moderate_net, obs_attrs):
    # the first anchor of a fit started at the exact MLE: 1e5 draws, seeded
    # as `mcmcmle` seeds its first anchor
    spec = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", alpha=0.5))
    )
    theta_star = exact_mle(ExactModel(spec, obs_attrs, 3, 3), moderate_net)
    seed = np.random.SeedSequence(30).spawn(1)[0]
    control = SamplerControl(burn_in=4096, interval=16, sample_size=100_000, seed=seed)
    model = bind(spec, moderate_net, obs_attrs)
    S = estimate.simulate(model, theta_star, moderate_net, control).stats
    s_obs = model.stats(moderate_net)
    assert float(np.linalg.norm(_maximize_ratio(S, s_obs))) <= 0.02


def test_mcmcmle_names_collinear_statistics():
    # `edges` is the sum of the three `b2sociality` statistics on every draw
    rng = np.random.default_rng(5)
    B = rng.random((8, 3)) < 0.4
    net = from_edge_list(8, 3, [(i + 1, 9 + k) for i, k in zip(*np.nonzero(B))])
    attrs = make_attrs1([f"g{g}" for g in rng.integers(0, 2, size=8)])
    spec = parse('edges + b1factor("group") + b2sociality')
    control = small_control(sample_size=500, seed=7, burn_in=1024)
    with pytest.warns(DegeneracyWarning, match="the simulated sample does not identify"):
        fit = mcmcmle(spec, net, attrs, control=control)
    lost = ["edges", "b2sociality.9", "b2sociality.10", "b2sociality.11"]
    assert fit.diagnostics["not_identified"] == lost
    assert fit.formula == format_spec(spec)
    unknown = np.isin(fit.names, lost)
    assert np.isnan(fit.std_errors[unknown]).all() and np.isnan(fit.p_values[unknown]).all()
    assert np.isfinite(fit.std_errors[~unknown]).all() and np.isfinite(fit.loglik)


def test_bridge_starts_at_the_exact_dyad_independent_mle(moderate_net, obs_attrs):
    spec = parse('edges + b1factor("group") + b1nodematch("group", alpha = 0.5)')
    model = bind(spec, moderate_net, obs_attrs)
    start, log_kappa = _dyad_independent_start(model, moderate_net, obs_attrs, model.stats(moderate_net))
    assert start[2] == 0.0
    np.testing.assert_allclose(start[:2], mple(parse('edges + b1factor("group")'), moderate_net, obs_attrs).theta)
    assert abs(log_kappa - ExactModel(spec, obs_attrs, 3, 3).log_kappa(start)) <= 1e-9


def test_bridge_starts_at_zero_without_a_dyad_independent_mle():
    # mode-2 node 9 has no edge: its sociality MLE is at minus infinity
    rng = np.random.default_rng(1)
    B = rng.random((6, 3)) < 0.5
    B[:, 2] = False
    net = from_edge_list(6, 3, [(i + 1, 7 + k) for i, k in zip(*np.nonzero(B))])
    attrs = make_attrs1(["a", "a", "a", "b", "b", "b"])
    spec = parse('edges + b2sociality + b1nodematch("group", alpha = 0.5)')
    model = bind(spec, net, attrs)
    start, log_kappa = _dyad_independent_start(model, net, attrs, model.stats(net))
    assert not start.any() and log_kappa == 18 * math.log(2.0)
    nodematch_only = parse('b1nodematch("group", alpha = 0.5)')
    start, log_kappa = _dyad_independent_start(bind(nodematch_only, net, attrs), net, attrs, np.zeros(1))
    assert not start.any() and log_kappa == 18 * math.log(2.0)
    # the fit itself completes from a start that keeps node 9 empty
    control = small_control(sample_size=2000, seed=0, burn_in=1024)
    with pytest.warns(DegeneracyWarning):
        fit = mcmcmle(spec, net, attrs, theta0=[0.0, 0.0, 0.0, -40.0, 0.0], control=control)
    assert np.isfinite(fit.loglik) and fit.loglik_sd > 0.0


@pytest.mark.parametrize("fit", ["mcmcmle", "profile"])
def test_a_fit_refuses_a_seed_sequence(obs_net, obs_attrs, fit):
    control = small_control(seed=np.random.SeedSequence(3))
    with pytest.raises(ValueError, match="a fit needs an int seed, got SeedSequence"):
        if fit == "mcmcmle":
            mcmcmle(edges_spec(), obs_net, obs_attrs, control=control)
        else:
            profile(NODEMATCH_TEMPLATE, "alpha", [0.5], obs_net, obs_attrs, control=control)


def test_mcmcmle_hull_violation_reports_nonconvergence():
    net = from_edge_list(2, 2, [(1, 3), (1, 4), (2, 3), (2, 4)])  # saturated
    control = small_control(sample_size=500, seed=3)
    with pytest.raises(NonConvergenceError, match="hull"):
        mcmcmle(edges_spec(), net, Attributes(), theta0=[0.0], control=control)


def test_mcmcmle_warns_on_constant_statistics(obs_net):
    # all-distinct categories force the homophily statistic to be constant zero
    attrs = make_attrs1(["a", "b", "c"])
    spec = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", beta=0.5))
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = mcmcmle(spec, obs_net, attrs, control=small_control(sample_size=2000, seed=5))
    assert any(isinstance(w.message, DegeneracyWarning) for w in caught)
    # the final sample is the one that decides; no other sample is reported
    assert fit.diagnostics["not_identified"] == ["b1nodematch.group"]
    assert "warnings" not in fit.diagnostics


def test_mcmcmle_diagnostics_fields(obs_net, obs_attrs):
    spec = edges_spec()
    fit = mcmcmle(spec, obs_net, obs_attrs, control=small_control(sample_size=3000, seed=19))
    for key in ("seed", "rng", "anchors", "acceptance_rate", "ess", "sample_size"):
        assert key in fit.diagnostics
    assert fit.diagnostics["ess"]["edges"] > 100


# ---------------------------------------------------------------------------
# profile likelihood
# ---------------------------------------------------------------------------


def test_profile_grid_contract(obs_net, obs_attrs):
    template = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group"))
    )
    grid = [g / 10.0 for g in range(11)]
    # at alpha=0 every nodematch change statistic on obs_net is 0
    with pytest.warns(DegeneracyWarning, match="b1nodematch.group"):
        points = profile(template, "alpha", grid, obs_net, obs_attrs, method="mple")
    assert len(points) == 11
    assert [p.value for p in points] == sorted(grid)
    assert all(p.fit is not None for p in points)


def test_profile_requires_unbound_term(obs_net, obs_attrs):
    with pytest.raises(ValueError, match="without a bound exponent"):
        profile(edges_spec(), "alpha", [0.0], obs_net, obs_attrs, method="mple")


NODEMATCH_TEMPLATE = ModelSpec(
    (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group"))
)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda net, attrs: ModelTerm(kind="edges", attribute="x"), "takes no attribute"),
        (lambda net, attrs: ModelTerm(kind="b1cov"), "requires an attribute"),
        (lambda net, attrs: ModelTerm(kind="b1cov", attribute="x", alpha=0.5), "takes no alpha"),
        (lambda net, attrs: ModelTerm(kind="edges", diff=True), "takes no diff"),
        (lambda net, attrs: ModelTerm(kind="b2star2", keep_levels=("a",)), "takes no keep levels"),
        (lambda net, attrs: mcmcmle(edges_spec(), net, attrs, theta0=[0.0, 0.0]), "theta0 has shape"),
        (lambda net, attrs: mcmcmle(edges_spec(), net, attrs, theta0=[math.inf]), "finite"),
        (
            lambda net, attrs: profile(NODEMATCH_TEMPLATE, "alpha", [0.5], net, attrs, method="x"),
            "method must be 'mple' or 'mcmcmle'",
        ),
        (
            lambda net, attrs: Chain(net, bind(edges_spec(), net, attrs), [0.0, 1.0], None),
            "theta has 2 entries for 1 statistics",
        ),
    ],
)
def test_arguments_that_do_not_fit_are_refused(obs_net, obs_attrs, call, message):
    with pytest.raises(ValueError, match=message):
        call(obs_net, obs_attrs)


def test_profile_records_failures_and_continues(obs_attrs):
    empty = from_edge_list(3, 3, [])  # separation at every grid point
    template = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group"))
    )
    points = profile(template, "beta", [0.0, 0.5, 1.0], empty, obs_attrs, method="mple")
    assert len(points) == 3
    assert all(p.fit is None for p in points)
    assert all("SeparationError" in p.error for p in points)


def test_profile_propagates_program_faults(obs_net, obs_attrs, monkeypatch):
    def broken(*args, **kwargs):
        raise IndexError("list index out of range")

    def drifted(*args, **kwargs):
        raise RuntimeError("incremental statistics drifted by 0.001 (tol 1e-08)")

    monkeypatch.setattr(estimate, "mple", broken)
    template = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group"))
    )
    with pytest.raises(IndexError, match="out of range"):
        profile(template, "alpha", [0.5], obs_net, obs_attrs, method="mple")
    # a chain fault is not an estimation failure: it must not become a row
    monkeypatch.undo()
    monkeypatch.setattr(estimate, "simulate", drifted)
    with pytest.raises(RuntimeError, match="drifted"):
        profile(template, "alpha", [0.5], obs_net, obs_attrs, control=small_control(), method="mcmcmle")


def test_profile_alpha_one_equals_beta_one(obs_net, obs_attrs):
    template = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group"))
    )
    control = small_control(sample_size=8000, seed=31)
    a = profile(template, "alpha", [1.0], obs_net, obs_attrs, control=control)[0]
    b = profile(template, "beta", [1.0], obs_net, obs_attrs, control=control)[0]
    assert a.fit is not None and b.fit is not None
    # identical statistics, independent chains: differences are Monte-Carlo noise
    sd = math.hypot(a.fit.loglik_sd, b.fit.loglik_sd)
    assert abs(a.fit.loglik - b.fit.loglik) <= max(3.0 * sd, 0.05)
    assert np.max(np.abs(a.fit.theta - b.fit.theta)) <= 0.1


# A seeded fit is a pure function of its inputs: this digest over theta,
# covariance, log-likelihood and its sd was recorded on the frozen 30x15
# benchmark network before the chain kept its own nodematch count tables,
# and again when the bridge started at the dyad-independent MLE, so it pins
# the whole estimate path (MPLE start, anchors, hull, bridge).  The alpha
# digest was re-recorded when the alpha kernel began to sum in ascending
# node order: theta, covariance and loglik kept their bits, loglik_sd moved
# by one unit in the last place.
FROZEN_30X15 = Path(__file__).resolve().parents[1] / "perfbench" / "data"

MCMCMLE_DIGESTS = {
    "alpha": "e1b9afcdfdb7d1f86ac77e960938b2d4bfe04328ffa8b9ec2d44a39b5885898d",
    "beta": "20ccec4579014e86f908add4afd9444742e0274a6ad125f13b37e28bdc0df964",
}


@pytest.mark.parametrize("which", sorted(MCMCMLE_DIGESTS))
def test_seeded_mcmcmle_keeps_its_digest(which):
    net = load_network(FROZEN_30X15 / "profile_30x15.edges")
    attrs = Attributes(mode1=load_attributes(FROZEN_30X15 / "profile_30x15_attrs1.tsv", 1, 30, 15))
    spec = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", **{which: 0.5}))
    )
    control = SamplerControl(burn_in=1024, interval=8, sample_size=400, seed=31)
    fit = mcmcmle(spec, net, attrs, control=control)
    h = hashlib.sha256()
    for part in (fit.theta, fit.covariance, np.array([fit.loglik, fit.loglik_sd])):
        h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    assert h.hexdigest() == MCMCMLE_DIGESTS[which]


# theta and covariance of the same seeded fits, recorded before the bridge
# started at the dyad-independent MLE: the bridge runs after the anchors
# and draws from its own seed branch, so it must not move the estimate
MCMCMLE_ESTIMATE_DIGESTS = {
    "alpha": "be2786449a04b95c14f5a088b3336609ee31ff7ceb8c295ddbcda72cc0271fcf",
    "beta": "ae9b9a394b115311771e80c823cf0446f078073167cf218b4d1c8d94512390db",
}


@pytest.mark.parametrize("which", sorted(MCMCMLE_ESTIMATE_DIGESTS))
def test_seeded_mcmcmle_estimate_keeps_its_digest(which):
    net = load_network(FROZEN_30X15 / "profile_30x15.edges")
    attrs = Attributes(mode1=load_attributes(FROZEN_30X15 / "profile_30x15_attrs1.tsv", 1, 30, 15))
    spec = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", **{which: 0.5}))
    )
    control = SamplerControl(burn_in=1024, interval=8, sample_size=400, seed=31)
    fit = mcmcmle(spec, net, attrs, control=control)
    h = hashlib.sha256()
    for part in (fit.theta, fit.covariance):
        h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    assert h.hexdigest() == MCMCMLE_ESTIMATE_DIGESTS[which]


def test_a_fit_that_runs_out_of_anchors_does_not_converge(monkeypatch):
    # with three anchors the criterion-8 fit stops at 1500 of its 3000 draws,
    # before the stopping rule ever runs, so it must not report an estimate
    monkeypatch.setattr(estimate, "MAX_ANCHORS", 3)
    net = load_network(FROZEN_30X15 / "profile_30x15.edges")
    attrs = Attributes(mode1=load_attributes(FROZEN_30X15 / "profile_30x15_attrs1.tsv", 1, 30, 15))
    spec = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", alpha=0.5))
    )
    control = SamplerControl(burn_in=8192, interval=48, sample_size=3000, seed=88)
    with pytest.raises(NonConvergenceError, match=r"after 3 anchors \(last step norm \d"):
        mcmcmle(spec, net, attrs, control=control)


def test_the_fit_states_every_control_field_but_the_seed(obs_net, obs_attrs):
    fit = mcmcmle(edges_spec(), obs_net, obs_attrs, control=small_control(sample_size=500, seed=4))
    assert fit.diagnostics["control"] == "burn_in=4096 interval=8 sample_size=500"
    assert fit.diagnostics["seed"] == 4
