import math

import numpy as np
import pytest

from bipergm import (
    Attributes,
    ExactModel,
    HullBoundaryError,
    ModelSpec,
    ModelTerm,
    SizeCapError,
    bind,
    exact_dyad_distribution,
    exact_mle,
    from_edge_list,
)
from bipergm.oracle import hull_direction

import reference as ref
from conftest import make_attrs1, random_attrs, random_net


def edges_spec():
    return ModelSpec((ModelTerm(kind="edges"),))


def nodematch_spec(which, value, attr="group"):
    kw = {which: value}
    return ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute=attr, **kw))
    )


def test_kappa_uniform_2x2():
    model = ExactModel(edges_spec(), Attributes(), 2, 2)
    assert model.log_kappa([0.0]) == pytest.approx(math.log(16.0), abs=1e-12)


@pytest.mark.parametrize("theta", [-2.0, -0.3, 0.0, 0.7, 1.9])
def test_kappa_independent_factorization(theta):
    model = ExactModel(edges_spec(), Attributes(), 2, 2)
    expected = 4.0 * math.log1p(math.exp(theta))
    assert model.log_kappa([theta]) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("t", [-1.0, 0.0, 0.8, 2.5])
def test_kappa_two_by_one_matching_pair(t):
    # states: empty, two one-edge, one two-edge with a single matching two-star
    attrs = make_attrs1(["a", "a"])
    model = ExactModel(nodematch_spec("alpha", 1.0), attrs, 2, 1)
    assert model.log_kappa([0.0, t]) == pytest.approx(
        math.log(3.0 + math.exp(t)), rel=1e-12
    )


def test_size_cap():
    with pytest.raises(SizeCapError, match="capped"):
        ExactModel(edges_spec(), Attributes(), 5, 5)


def test_gray_code_table_matches_direct_eval():
    rng = np.random.default_rng(7)
    attrs = random_attrs(rng, 3, 3)
    spec = ModelSpec(
        (
            ModelTerm(kind="edges"),
            ModelTerm(kind="b1nodematch", attribute="group", beta=0.3),
            ModelTerm(kind="b2star2"),
        )
    )
    model = ExactModel(spec, attrs, 3, 3)
    bound = bind(spec, from_edge_list(3, 3, []), attrs)
    for code in rng.integers(0, 2**9, size=25):
        net = from_edge_list(3, 3, [])
        for bit, (i, k) in enumerate(model.dyads):
            if code >> bit & 1:
                net.toggle(i, k)
        assert np.allclose(model.stats_table[code], bound.stats(net), atol=1e-10)
        assert model.state_index(net) == code


def test_probabilities_normalize():
    rng = np.random.default_rng(3)
    attrs = random_attrs(rng, 3, 3)
    model = ExactModel(nodematch_spec("beta", 0.5), attrs, 3, 3)
    for _ in range(5):
        theta = rng.normal(scale=1.5, size=2)
        assert model.probabilities(theta).sum() == pytest.approx(1.0, abs=1e-12)


def test_gradient_identity_finite_differences():
    rng = np.random.default_rng(11)
    attrs = random_attrs(rng, 3, 3)
    model = ExactModel(nodematch_spec("alpha", 0.5), attrs, 3, 3)
    theta = np.array([0.4, -0.7])
    mean, _ = model.moments(theta)
    h = 1e-5
    for j in range(2):
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        fd = (model.log_kappa(up) - model.log_kappa(down)) / (2.0 * h)
        assert abs(fd - mean[j]) / max(1.0, abs(mean[j])) <= 1e-4


def test_uniform_distribution_at_zero():
    model = ExactModel(edges_spec(), Attributes(), 2, 2)
    dist = exact_dyad_distribution(model, [0.0])
    assert np.allclose(dist.probabilities, 1.0 / 16.0, atol=1e-14)
    assert np.allclose(dist.marginals, 0.5, atol=1e-12)


def test_factor_marginals_follow_logistic_form():
    # independent-dyad homophily pattern: dyads whose mode-1 node carries
    # the non-reference level have probability expit(theta1 + theta2)
    attrs = make_attrs1(["a", "b", "b"], name="g")
    spec = ModelSpec((ModelTerm(kind="edges"), ModelTerm(kind="b1factor", attribute="g")))
    model = ExactModel(spec, attrs, 3, 2)
    theta = np.array([-0.4, 1.1])
    dist = exact_dyad_distribution(model, theta)
    base = math.exp(-0.4) / (1.0 + math.exp(-0.4))
    boosted = math.exp(0.7) / (1.0 + math.exp(0.7))
    for (i, _k), marginal in zip(dist.dyads, dist.marginals):
        expected = base if i == 1 else boosted
        assert marginal == pytest.approx(expected, abs=1e-12)


def test_exact_mle_edges_only_closed_form(fig2_net, fig2_attrs):
    model = ExactModel(edges_spec(), fig2_attrs, 3, 2)
    theta = exact_mle(model, fig2_net)
    assert theta[0] == pytest.approx(ref.logit(5.0 / 6.0), abs=1e-9)


def test_exact_mle_boundary_detection():
    model = ExactModel(edges_spec(), Attributes(), 2, 2)
    empty = from_edge_list(2, 2, [])
    with pytest.raises(HullBoundaryError, match="direction"):
        exact_mle(model, empty)
    full = from_edge_list(2, 2, [(1, 3), (1, 4), (2, 3), (2, 4)])
    with pytest.raises(HullBoundaryError):
        exact_mle(model, full)


def test_exact_mle_moment_equation_and_reproducibility():
    rng = np.random.default_rng(1)  # a draw whose statistics are interior
    attrs = random_attrs(rng, 3, 3)
    net = random_net(rng, 3, 3, density=0.5)
    spec = nodematch_spec("beta", 0.5)
    model = ExactModel(spec, attrs, 3, 3)
    theta1 = exact_mle(model, net)
    theta2 = exact_mle(model, net)
    assert np.max(np.abs(theta1 - theta2)) <= 1e-8
    mean, _ = model.moments(theta1)
    assert np.max(np.abs(mean - model.stats_of(net))) <= 1e-8


def test_exact_mle_reaches_its_tolerance_where_a_step_gains_less_than_rounding():
    # near this optimum a full Newton step lowers the computed log-likelihood
    # by rounding alone; a line search that rejects it stalls at a score norm
    # of about 1e-8, above the 1e-10 the ascent asks for
    edges = [(1, 5), (1, 6), (1, 7), (2, 5), (2, 7), (2, 8), (3, 5), (3, 6), (3, 8), (4, 8)]
    net = from_edge_list(4, 4, edges)
    attrs = make_attrs1(["0", "1", "1", "1"], name="g")
    spec = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="g", beta=0.3))
    )
    model = ExactModel(spec, attrs, 4, 4)
    theta = exact_mle(model, net)
    mean, _ = model.moments(theta)
    assert float(np.linalg.norm(model.stats_of(net) - mean)) <= 1e-10


def test_hull_direction_basics():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert hull_direction(points, np.array([0.5, 0.5])) is None
    w = hull_direction(points, np.array([1.5, 0.5]))
    assert w is not None and w[0] > 0
    # boundary point: a supporting direction exists
    assert hull_direction(points, np.array([1.0, 0.5])) is not None
