import hashlib
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit, logsumexp

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
from bipergm.sampler import _generator

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


# The nodematch columns are built one kept level at a time, from that
# level's block of focal rows.  These networks are large enough for BLAS to
# block the products, and each mode has a level of exactly one node, whose
# block is a single row with a zero two-path matrix.


def level_block_case(n1, n2, density, seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, n1, n2, density=density)
    t1, t2 = AttributeTable(1, n1), AttributeTable(2, n2)
    t1.add_categorical("group", ["d"] + [str(rng.choice(["a", "b", "c"])) for _ in range(n1 - 1)])
    t2.add_categorical("kind", [str(rng.choice(["p", "q"])) for _ in range(n2 - 1)] + ["r"])
    return net, Attributes(mode1=t1, mode2=t2)


@pytest.mark.parametrize("shape,density", [((60, 40), 0.3), ((40, 60), 0.15)])
@pytest.mark.parametrize("which,exponent", [("alpha", 0.3), ("alpha", 0.7), ("beta", 0.4)])
def test_level_block_design_equals_per_dyad_change_statistics(shape, density, which, exponent):
    net, attrs = level_block_case(*shape, density, seed=shape[0])
    for column in ("group", "kind"):
        counts = np.unique(attrs.table_for(1 if column == "group" else 2).categorical(column).codes,
                           return_counts=True)[1]
        assert 1 in counts
    spec = ModelSpec(
        (ModelTerm(kind="edges"),)
        + tuple(
            ModelTerm(kind=kind, attribute=column, diff=diff, keep_levels=keep, **{which: exponent})
            # each kept subset drops one level and keeps the one-node level
            for kind, column, subset in (("b1nodematch", "group", ("b", "c", "d")),
                                         ("b2nodematch", "kind", ("q", "r")))
            for diff, keep in ((True, None), (False, subset), (True, subset))
        )
    )
    model = bind(spec, net, attrs)
    X, y = _dyad_design(model, net)
    X_ref, y_ref = per_dyad_design(model, net)
    assert np.array_equal(y, y_ref)
    assert np.array_equal(X[:, 0], X_ref[:, 0])
    if which == "alpha":
        np.testing.assert_allclose(X[:, 1:], X_ref[:, 1:], rtol=ALPHA_RTOL, atol=0.0)
    else:
        assert np.array_equal(X, X_ref)
    # every slot, the one-node levels' included, is a column of its own
    assert model.p == 1 + (4 + 1 + 3) + (3 + 1 + 2)


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


# A seeded MPLE is a pure function of its inputs: this digest over theta,
# covariance, pseudo-log-likelihood and Newton iteration count pins every
# bit of the fit on three seeded 30x15 designs
MPLE_DIGESTS = {
    'edges + b1nodematch("group", alpha = 0.5)':
        "ee26e8dcf23439907e422af95f3970068b23b951a4ee86bda69b13c5a6764d30",
    'edges + b1nodematch("group", beta = 0.1)':
        "3942395ae2ff80f3a33339a54e8f59621c6a25153810dd823938c7a0fe109c54",
    'edges + b1cov("x") + b2star(2) + b2nodematch("kind", alpha = 0.5, diff = TRUE)':
        "fb6b42d169fd5e502868d9daada4010ba4362899613d84ecef2f496673923875",
}


@pytest.mark.parametrize("seed,formula", enumerate(MPLE_DIGESTS))
def test_seeded_mple_keeps_its_digest(seed, formula):
    rng = np.random.default_rng(seed)
    net = random_net(rng, 30, 15, density=0.2)
    attrs = random_attrs(rng, 30, 15, levels=("a", "b", "c"))
    fit = mple(parse(formula), net, attrs)
    h = hashlib.sha256()
    for part in (fit.theta, fit.covariance, np.array([fit.loglik, fit.diagnostics["iterations"]])):
        h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    assert h.hexdigest() == MPLE_DIGESTS[formula]


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


def test_anchor_step_reaches_its_tolerance_where_a_step_gains_less_than_rounding():
    # near this optimum a full Newton step lowers the computed ratio by
    # rounding alone; a line search that rejects it stalls above tolerance
    rng = np.random.default_rng(1183)
    S = rng.normal(size=(rng.integers(50, 800), 3)) @ rng.normal(size=(3, 3)) + rng.normal(size=3)
    s_obs = S.mean(0) + rng.normal(size=3) * S.std(0) * rng.uniform(0, 1)
    delta = _maximize_ratio(S, s_obs)
    Sc = S - S.mean(0)
    bc = s_obs - S.mean(0)
    scores = Sc @ delta
    grad = bc - np.exp(scores - logsumexp(scores)) @ Sc
    assert float(np.linalg.norm(grad)) <= 1e-9 * max(1.0, float(np.linalg.norm(bc)))


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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = mcmcmle(spec, net, attrs, theta0=[0.0, 0.0, 0.0, -40.0, 0.0], control=control)
    assert np.isfinite(fit.loglik) and fit.loglik_sd > 0.0
    # every anchor leaves node 9's sociality unidentified; the fit says so once
    degenerate = [w for w in caught if issubclass(w.category, DegeneracyWarning)]
    assert len(degenerate) == 1 and "b2sociality.9" in str(degenerate[0].message)


def test_bridge_sd_counts_draws_by_their_autocorrelation():
    # each leg's 1000 draws hold each of 10 independent values for 100 draws
    # in a row: the reported sd must be that of the mean of 10 draws, not of
    # 25 batches, which would understate it by about sqrt(10 / 25)
    rng = np.random.default_rng(5)
    blocks = rng.normal(0.0, 3.0, size=(estimate.BRIDGE_LEGS, 10))
    legs = iter(blocks)

    class Blocky:
        def set_theta(self, theta):
            pass

        def run(self, proposals):
            pass

        def sample(self, size, interval):
            assert size == 1000
            return np.repeat(next(legs), 100)[:, None]

    # the legs run from theta_hat up to 0, each stepping by +0.1
    theta_hat = np.array([-0.1 * estimate.BRIDGE_LEGS])
    _, sd = estimate._bridge_loglik(Blocky(), theta_hat, np.zeros(1), 8, np.zeros(1), 0.0)
    r = np.exp(0.1 * blocks)
    block_sd = math.sqrt(float(np.sum(r.var(axis=1, ddof=1) / 10 / r.mean(axis=1) ** 2)))
    assert abs(sd / block_sd - 1.0) <= 0.25


@pytest.mark.slow
@pytest.mark.parametrize("which", ["alpha", "beta"])
def test_bridge_z_scores_at_the_exact_mle_centre_on_zero_with_unit_spread(moderate_net, obs_attrs, which):
    # 40 bridges on the criterion-7 network and control, each from the exact
    # MLE on its own seed: z against the exact log-likelihood must centre
    # near 0 with a spread near 1 if the reported sd is honest
    spec = parse(f'edges + b1nodematch("group", {which} = 0.5)')
    oracle = ExactModel(spec, obs_attrs, 3, 3)
    theta = exact_mle(oracle, moderate_net)
    exact = exact_loglik(oracle, theta, moderate_net)
    model = bind(spec, moderate_net, obs_attrs)
    s_obs = model.stats(moderate_net)
    start, log_kappa = _dyad_independent_start(model, moderate_net, obs_attrs, s_obs)
    z = []
    for seed in range(600, 640):
        chain = Chain(moderate_net.copy(), model, theta, _generator(seed))
        chain.run(4096)
        loglik, sd = estimate._bridge_loglik(chain, theta, s_obs, 8, start, log_kappa)
        z.append((loglik - exact) / sd)
    assert abs(np.mean(z)) <= 0.5 and 0.7 <= np.std(z, ddof=1) <= 1.3


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


@pytest.mark.parametrize("method", ["mple", "mcmcmle"])
@pytest.mark.parametrize("grid,message", [([0.5, 1.5], "alpha must lie in \\[0, 1\\], got 1.5"),
                                          ([0.5, math.nan], "alpha must lie in \\[0, 1\\], got nan")])
def test_profile_refuses_its_grid_before_the_first_fit(obs_net, obs_attrs, monkeypatch, method, grid, message):
    fits = []
    monkeypatch.setattr(estimate, "mple", lambda *args, **kwargs: fits.append(args))
    monkeypatch.setattr(estimate, "mcmcmle", lambda *args, **kwargs: fits.append(args))
    with pytest.raises(ValueError, match=message):
        profile(NODEMATCH_TEMPLATE, "alpha", grid, obs_net, obs_attrs, control=small_control(), method=method)
    assert fits == []


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
# by one unit in the last place.  Both were re-recorded, with the estimate
# digests below, when the full statistic became its shared-partner spectrum
# times the power table: the same anchor count, with theta, covariance,
# loglik and loglik_sd within 1e-14 relative.  Both were re-recorded when
# each bridge leg took its variance from the chain's ESS in place of batch
# means: theta, covariance and loglik kept their bits, only loglik_sd moved.
# Both were re-recorded, with the estimate digests below, when a hull miss
# began to step toward the hull's edge and a collapsed weight ESS stopped
# ending a fit: at this short control both fits used to stop on a sample
# whose weights had collapsed (weight ESS 38.6 and 9.8 of 400, after 1 and
# 4 misses); they now stop at 319.2 and 394.1 of 400.  Both were
# re-recorded, with the clean-fit digests below, when the bridge began to
# continue the last anchor's chain from the estimate down to its start:
# theta and covariance kept their bits, only loglik and loglik_sd moved.
FROZEN_30X15 = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def frozen_30x15():
    net = load_network(FROZEN_30X15 / "profile_30x15.edges")
    return net, Attributes(mode1=load_attributes(FROZEN_30X15 / "profile_30x15_attrs1.tsv", 1, 30, 15))


MCMCMLE_DIGESTS = {
    "alpha": "4e237e6ae06311789cb5b1e2df4d9fb45b2e47b1d1abd3d83d3d68d6037b8dd5",
    "beta": "d9cf0563cac50b5b2678d7de8698291becc5cc40e80104099b09e65a357a766c",
}


@pytest.mark.parametrize("which", sorted(MCMCMLE_DIGESTS))
def test_seeded_mcmcmle_keeps_its_digest(which):
    net, attrs = frozen_30x15()
    spec = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", **{which: 0.5}))
    )
    control = SamplerControl(burn_in=1024, interval=8, sample_size=400, seed=31)
    fit = mcmcmle(spec, net, attrs, control=control)
    h = hashlib.sha256()
    for part in (fit.theta, fit.covariance, np.array([fit.loglik, fit.loglik_sd])):
        h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    assert h.hexdigest() == MCMCMLE_DIGESTS[which]


# the proposals of the same seeded fits: a seed fixes them, so they price
# a fit with no timer noise.  Alpha stops at its 6th anchor and beta at its
# 11th; each anchor burns in 1024 proposals and then draws 200 or 400 rows
# at interval 8, so 6 * 1024 + 8 * 1800 and 11 * 1024 + 8 * 3800.
MCMCMLE_PROPOSALS = {
    "alpha": {"anchors": 20_544, "bridge": 27_598},
    "beta": {"anchors": 41_664, "bridge": 29_216},
}


@pytest.mark.parametrize("which", sorted(MCMCMLE_PROPOSALS))
def test_seeded_mcmcmle_keeps_its_proposal_counts(which):
    net, attrs = frozen_30x15()
    spec = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", **{which: 0.5}))
    )
    control = SamplerControl(burn_in=1024, interval=8, sample_size=400, seed=31)
    fit = mcmcmle(spec, net, attrs, control=control)
    assert fit.diagnostics["proposals"] == MCMCMLE_PROPOSALS[which]


# theta and covariance of the same seeded fits, recorded before the bridge
# started at the dyad-independent MLE: the bridge runs after the anchors
# and draws from its own seed branch, so it must not move the estimate
MCMCMLE_ESTIMATE_DIGESTS = {
    "alpha": "dcc8f2dc4d754ec0808fb28e296d3ec1450671ca416eed67f0329732d10a3163",
    "beta": "247fb771426dc429678abde4d64c5f3208a5c84b5bc8240209ed32591d4b5dd8",
}


@pytest.mark.parametrize("which", sorted(MCMCMLE_ESTIMATE_DIGESTS))
def test_seeded_mcmcmle_estimate_keeps_its_digest(which):
    net, attrs = frozen_30x15()
    spec = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", **{which: 0.5}))
    )
    control = SamplerControl(burn_in=1024, interval=8, sample_size=400, seed=31)
    fit = mcmcmle(spec, net, attrs, control=control)
    h = hashlib.sha256()
    for part in (fit.theta, fit.covariance):
        h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    assert h.hexdigest() == MCMCMLE_ESTIMATE_DIGESTS[which]


# Fits that never miss the hull and never stop on collapsed weights, at the
# criterion-8 control: the benchmark's one-point profiles at 0.5 and the
# linear-end rows of the seed-88 default grids.  Recorded before a hull
# miss stepped toward the hull's edge and the stop read the weight ESS:
# neither rule may move them.  Re-recorded when the bridge began to
# continue the last anchor's chain: only loglik and loglik_sd moved.
CRITERION_8 = SamplerControl(burn_in=8192, interval=48, sample_size=3000, seed=88)
CLEAN_FIT_DIGESTS = {
    ("alpha", 0.5): "dffe03be4860270c0ff8b35c8a559acd47599bf43742b1a0dbfea7bc2581d12e",
    ("beta", 0.5): "bb750b5765cfe4d3e76b8ce1858cdde9784b61a0da0501c868f02e74821bdab9",
    ("alpha", 1.0): "3a8c21539404808bea9e27c5aa51a1964f4bc2f68ee1632970f2e46c3d74bc64",
    ("beta", 1.0): "7dcdc30457f312b8a201a75f41e6f0ca737033d2edda57e881cde607e118e36b",
}


@pytest.mark.parametrize("which,value", sorted(CLEAN_FIT_DIGESTS))
def test_clean_criterion_8_fits_keep_their_digest(which, value):
    net, attrs = frozen_30x15()
    template = parse('edges + b1nodematch("group")')
    if value == 0.5:  # a one-point profile, as `bipergm profile --alpha-grid 0.5` runs it
        fit = profile(template, which, [value], net, attrs, control=CRITERION_8)[0].fit
    else:  # the last of the 11 default grid points, seeded as `profile` seeds it
        seq = np.random.SeedSequence(88, spawn_key=(0 if which == "alpha" else 1,)).spawn(11)[10]
        control = replace(CRITERION_8, seed=int(seq.generate_state(1, np.uint64)[0] >> 1))
        fit = mcmcmle(template.bind_exponent(which, value), net, attrs, control=control)
    assert fit.diagnostics["hull_failures"] == 0
    h = hashlib.sha256()
    for part in (fit.theta, fit.covariance, np.array([fit.loglik, fit.loglik_sd])):
        h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    assert h.hexdigest() == CLEAN_FIT_DIGESTS[which, value]


def test_a_first_sample_that_misses_s_obs_steps_toward_it(moderate_net, obs_attrs):
    # at edges = -4 the chain keeps the 3x3 network near empty, far below
    # its five edges, so the first samples miss s_obs
    spec = parse('edges + b1nodematch("group", alpha = 0.5)')
    theta_star = exact_mle(ExactModel(spec, obs_attrs, 3, 3), moderate_net)
    fit = mcmcmle(spec, moderate_net, obs_attrs, theta0=[-4.0, 0.0], control=small_control(sample_size=4000, seed=3))
    assert fit.diagnostics["hull_failures"] >= 1
    mc_sd = np.asarray(fit.diagnostics["mc_sd"])
    assert np.all(np.abs(fit.theta - theta_star) <= 3.0 * mc_sd)


def test_a_collapsed_weight_ess_does_not_end_the_fit():
    # at this short control the alpha fit once stopped on a full-size anchor
    # whose step left a weight ESS of 38.6 of its 400 draws
    net, attrs = frozen_30x15()
    spec = parse('edges + b1nodematch("group", alpha = 0.5)')
    fit = mcmcmle(spec, net, attrs, control=SamplerControl(burn_in=1024, interval=8, sample_size=400, seed=31))
    assert fit.diagnostics["weight_ess"] >= estimate.WEIGHT_ESS_SHARE * fit.diagnostics["sample_size"]


def test_a_fit_that_runs_out_of_anchors_does_not_converge(monkeypatch):
    # with three anchors the criterion-8 fit stops at 1500 of its 3000 draws,
    # before the stopping rule ever runs, so it must not report an estimate
    monkeypatch.setattr(estimate, "MAX_ANCHORS", 3)
    net, attrs = frozen_30x15()
    spec = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", alpha=0.5))
    )
    control = SamplerControl(burn_in=8192, interval=48, sample_size=3000, seed=88)
    with pytest.raises(NonConvergenceError, match=r"after 3 anchors \(last step norm \d"):
        mcmcmle(spec, net, attrs, control=control)


def test_a_fit_stops_on_the_error_it_reports(monkeypatch, obs_net, obs_attrs):
    # a zero covariance reports a zero Monte-Carlo sd, so no step is within
    # the noise and the fit runs out of anchors
    def no_error(info, rows, names, *rest):
        return np.zeros((len(names), len(names))), []

    monkeypatch.setattr(estimate, "_covariance", no_error)
    monkeypatch.setattr(estimate, "MAX_ANCHORS", 6)
    with pytest.raises(NonConvergenceError, match=r"after 6 anchors \(last step norm \d"):
        mcmcmle(edges_spec(), obs_net, obs_attrs, control=small_control(sample_size=400, seed=4))


def test_the_fit_states_every_control_field_but_the_seed(obs_net, obs_attrs):
    fit = mcmcmle(edges_spec(), obs_net, obs_attrs, control=small_control(sample_size=50, seed=4))
    assert fit.diagnostics["control"] == "burn_in=4096 interval=8 sample_size=50"
    assert fit.diagnostics["seed"] == 4
    # every anchor is raised to 200 draws, so each one is at full size and may stop the fit
    assert fit.diagnostics["sample_size"] == 200
