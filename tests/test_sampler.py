import math

import numpy as np
import pytest

from bipergm import (
    AttributeTable,
    Attributes,
    Chain,
    ExactModel,
    ModelSpec,
    ModelTerm,
    SamplerControl,
    bind,
    cond_log_odds,
    from_edge_list,
    mh_step,
    simulate,
)
from bipergm.sampler import _generator

from conftest import make_attrs1


def edges_spec():
    return ModelSpec((ModelTerm(kind="edges"),))


class TestCondLogOdds:
    def test_zero_parameter(self, fig2_net, fig2_attrs):
        spec = edges_spec()
        for i in (1, 2, 3):
            for k in (4, 5):
                assert cond_log_odds(spec, fig2_net, fig2_attrs, [0.0], i, k) == 0.0

    def test_edges_only_logodds_is_theta(self, fig2_net, fig2_attrs):
        # conditional probability is expit(theta1) for every dyad
        spec = edges_spec()
        assert cond_log_odds(spec, fig2_net, fig2_attrs, [1.3], 2, 5) == pytest.approx(1.3)

    def test_beta_zero_bound_case(self, fig2_net, fig2_attrs):
        spec = ModelSpec(
            (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", beta=0.0))
        )
        value = cond_log_odds(spec, fig2_net, fig2_attrs, [0.0, 2.0], 1, 4)
        assert value == pytest.approx(1.0)

    def test_dimension_mismatch(self, fig2_net, fig2_attrs):
        with pytest.raises(ValueError, match="dimension"):
            cond_log_odds(edges_spec(), fig2_net, fig2_attrs, [0.0, 1.0], 1, 4)


class TestMhStep:
    def test_flat_target_uniform_proposal_always_accepts(self):
        net = from_edge_list(2, 3, [])
        rng = _generator(0)
        accepted = sum(
            mh_step(net, edges_spec(), Attributes(), [0.0], rng, proposal="uniform")
            for _ in range(300)
        )
        assert accepted == 300

    def test_strong_negative_edges_empties_a_full_network(self):
        net = from_edge_list(2, 2, [(1, 3), (1, 4), (2, 3), (2, 4)])
        bound = bind(edges_spec(), net, Attributes())
        chain = Chain(net, bound, [-10.0], _generator(1), proposal="tnt")
        chain.run(200)
        assert net.edge_count <= 1

    def test_tnt_grows_from_empty(self):
        net = from_edge_list(2, 2, [])
        bound = bind(edges_spec(), net, Attributes())
        chain = Chain(net, bound, [10.0], _generator(2), proposal="tnt")
        chain.run(200)
        assert net.edge_count >= 3

    @pytest.mark.parametrize("proposal", ["tnt", "uniform"])
    def test_edges_only_long_run_density(self, proposal):
        theta = 0.5
        net = from_edge_list(2, 2, [])
        bound = bind(edges_spec(), net, Attributes())
        chain = Chain(net, bound, [theta], _generator(9), proposal=proposal)
        chain.run(2000)
        total = 0.0
        draws = 300_000
        for _ in range(draws):
            chain.step()
            total += chain.stats[0]
        density = total / draws / 4.0
        expected = math.exp(theta) / (1.0 + math.exp(theta))
        assert density == pytest.approx(expected, abs=0.01)


class TestSimulate:
    def test_sample_size_contract(self, fig2_net, fig2_attrs):
        control = SamplerControl(burn_in=50, interval=3, sample_size=17, seed=4)
        sample = simulate(edges_spec(), fig2_attrs, [0.3], fig2_net, control)
        assert sample.stats.shape == (17, 1)
        assert sample.names == ["edges"]
        assert sample.final_network is not None
        assert sample.proposals == 50 + 17 * 3

    def test_uniform_mean_edge_count(self):
        net = from_edge_list(2, 3, [])
        control = SamplerControl(burn_in=5000, interval=1, sample_size=1_000_000, seed=5)
        sample = simulate(edges_spec(), Attributes(), [0.0], net, control)
        assert sample.stats[:, 0].mean() == pytest.approx(3.0, abs=0.01)

    def test_bernoulli_mean_edge_count(self):
        net = from_edge_list(3, 2, [])
        control = SamplerControl(burn_in=5000, interval=1, sample_size=1_000_000, seed=6)
        sample = simulate(edges_spec(), Attributes(), [math.log(5.0)], net, control)
        assert sample.stats[:, 0].mean() == pytest.approx(5.0, abs=0.02)

    def test_seed_determinism(self, fig2_net, fig2_attrs):
        spec = ModelSpec(
            (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", beta=0.0))
        )
        control = SamplerControl(burn_in=500, interval=5, sample_size=200, seed=123)
        a = simulate(spec, fig2_attrs, [0.2, 0.4], fig2_net, control)
        b = simulate(spec, fig2_attrs, [0.2, 0.4], fig2_net, control)
        assert np.array_equal(a.stats, b.stats)
        assert a.final_network == b.final_network
        c = simulate(spec, fig2_attrs, [0.2, 0.4], fig2_net, SamplerControl(
            burn_in=500, interval=5, sample_size=200, seed=124))
        assert not np.array_equal(a.stats, c.stats)

    def test_input_network_untouched(self, fig2_net, fig2_attrs):
        before = set(fig2_net.edges())
        control = SamplerControl(burn_in=200, interval=2, sample_size=50, seed=8)
        simulate(edges_spec(), fig2_attrs, [0.0], fig2_net, control)
        assert set(fig2_net.edges()) == before

    @pytest.mark.parametrize("mode", [1, 2], ids=["mode1", "mode2"])
    def test_incremental_audit_under_stress(self, mode):
        # beta=0 has the most discontinuous change statistics; a long run
        # followed by the built-in audit exercises incremental updates
        if mode == 1:
            attrs = make_attrs1(["a", "a", "b", "a"])
            net = from_edge_list(4, 3, [])
            homophily = (
                ModelTerm(kind="b1nodematch", attribute="group", beta=0.0),
                ModelTerm(kind="b1nodematch", attribute="group", alpha=0.0),
            )
            theta = [0.1, 0.5, 0.3, -0.2]
        else:
            table = AttributeTable(2, 6)
            table.add_categorical("kind", ["a", "b", "a", "a", "b", "a"])
            attrs = Attributes(mode2=table)
            net = from_edge_list(3, 6, [])
            homophily = (
                ModelTerm(kind="b2nodematch", attribute="kind", beta=0.0, diff=True),
                ModelTerm(kind="b2nodematch", attribute="kind", alpha=0.0, diff=True),
                ModelTerm(kind="b2nodematch", attribute="kind", alpha=0.5, keep_levels=("a",)),
            )
            theta = [0.1, 0.5, 0.4, 0.3, 0.2, 0.3, -0.2]
        spec = ModelSpec((ModelTerm(kind="edges"), *homophily, ModelTerm(kind="b2star2")))
        control = SamplerControl(burn_in=0, interval=1, sample_size=20_000, seed=11)
        sample = simulate(spec, attrs, theta, net, control)
        final = bind(spec, net, attrs).stats(sample.final_network)
        assert np.max(np.abs(final - sample.stats[-1])) <= 1e-8
        # the same chain, audited at every 200th state rather than the last
        chain = Chain(net, bind(spec, net, attrs), theta, _generator(11))
        for _ in range(100):
            chain.run(200)
            chain.audit()
        assert net == sample.final_network


@pytest.mark.parametrize("proposal", ["tnt", "uniform"])
def test_detailed_balance_against_enumeration(proposal):
    attrs = make_attrs1(["a", "a"])
    spec = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", alpha=0.5))
    )
    exact_model = ExactModel(spec, attrs, 2, 2)
    theta = [1.0, -1.0]
    exact = exact_model.probabilities(theta)
    net = from_edge_list(2, 2, [])
    chain = Chain(net, bind(spec, net, attrs), theta, _generator(21), proposal=proposal)
    chain.run(2000)
    draws = 300_000
    counts = np.zeros(16)
    code = exact_model.state_index(net)
    for _ in range(draws):
        if chain.step():
            i, k = chain.last_dyad
            code ^= 1 << ((i - 1) * 2 + (k - 3))
        counts[code] += 1
    chain.audit()
    tv = 0.5 * float(np.abs(counts / draws - exact).sum())
    assert tv <= 0.015


def test_control_validation():
    with pytest.raises(ValueError, match="interval"):
        SamplerControl(interval=0)
    with pytest.raises(ValueError, match="proposal"):
        SamplerControl(proposal="bogus")
    assert SamplerControl(burn_in=None).resolved_burn_in(450) == 2**14
    assert SamplerControl(burn_in=None).resolved_burn_in(1500) == 2**15
    assert SamplerControl(burn_in=7).resolved_burn_in(450) == 7
