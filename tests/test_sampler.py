import hashlib
import math
import weakref

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
    from_edge_list,
    simulate,
)
from bipergm.sampler import UNIFORM_BLOCK, _generator

from conftest import make_attrs1, random_attrs, random_net
from reference import toggle_in_list


def edges_spec():
    return ModelSpec((ModelTerm(kind="edges"),))


class TestCondLogOdds:
    def test_zero_parameter(self, fig2_net, fig2_attrs):
        model = bind(edges_spec(), fig2_net, fig2_attrs)
        for i in (1, 2, 3):
            for k in (4, 5):
                assert np.array([0.0]) @ model.delta(fig2_net, i, k) == 0.0

    def test_edges_only_logodds_is_theta(self, fig2_net, fig2_attrs):
        # conditional probability is expit(theta1) for every dyad
        model = bind(edges_spec(), fig2_net, fig2_attrs)
        assert np.array([1.3]) @ model.delta(fig2_net, 2, 5) == pytest.approx(1.3)

    def test_beta_zero_bound_case(self, fig2_net, fig2_attrs):
        spec = ModelSpec(
            (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", beta=0.0))
        )
        value = np.array([0.0, 2.0]) @ bind(spec, fig2_net, fig2_attrs).delta(fig2_net, 1, 4)
        assert value == pytest.approx(1.0)


class TestMhStep:
    def test_strong_negative_edges_empties_a_full_network(self):
        net = from_edge_list(2, 2, [(1, 3), (1, 4), (2, 3), (2, 4)])
        bound = bind(edges_spec(), net, Attributes())
        chain = Chain(net, bound, [-10.0], _generator(1))
        chain.run(200)
        assert net.edge_count <= 1

    def test_tnt_grows_from_empty(self):
        net = from_edge_list(2, 2, [])
        bound = bind(edges_spec(), net, Attributes())
        chain = Chain(net, bound, [10.0], _generator(2))
        chain.run(200)
        assert net.edge_count >= 3

    def test_edges_only_long_run_density(self):
        theta = 0.5
        net = from_edge_list(2, 2, [])
        bound = bind(edges_spec(), net, Attributes())
        chain = Chain(net, bound, [theta], _generator(9))
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
        sample = simulate(bind(edges_spec(), fig2_net, fig2_attrs), [0.3], fig2_net, control)
        assert sample.stats.shape == (17, 1)
        assert sample.final_network is not None
        assert sample.proposals == 50 + 17 * 3

    def test_uniform_mean_edge_count(self):
        net = from_edge_list(2, 3, [])
        control = SamplerControl(burn_in=5000, interval=1, sample_size=1_000_000, seed=5)
        sample = simulate(bind(edges_spec(), net, Attributes()), [0.0], net, control)
        assert sample.stats[:, 0].mean() == pytest.approx(3.0, abs=0.01)

    def test_bernoulli_mean_edge_count(self):
        net = from_edge_list(3, 2, [])
        control = SamplerControl(burn_in=5000, interval=1, sample_size=1_000_000, seed=6)
        sample = simulate(bind(edges_spec(), net, Attributes()), [math.log(5.0)], net, control)
        assert sample.stats[:, 0].mean() == pytest.approx(5.0, abs=0.02)

    def test_seed_determinism(self, fig2_net, fig2_attrs):
        spec = ModelSpec(
            (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", beta=0.0))
        )
        model = bind(spec, fig2_net, fig2_attrs)
        control = SamplerControl(burn_in=500, interval=5, sample_size=200, seed=123)
        a = simulate(model, [0.2, 0.4], fig2_net, control)
        b = simulate(model, [0.2, 0.4], fig2_net, control)
        assert np.array_equal(a.stats, b.stats)
        assert a.final_network == b.final_network
        c = simulate(model, [0.2, 0.4], fig2_net, SamplerControl(
            burn_in=500, interval=5, sample_size=200, seed=124))
        assert not np.array_equal(a.stats, c.stats)

    def test_input_network_untouched(self, fig2_net, fig2_attrs):
        before = set(fig2_net.edges())
        control = SamplerControl(burn_in=200, interval=2, sample_size=50, seed=8)
        simulate(bind(edges_spec(), fig2_net, fig2_attrs), [0.0], fig2_net, control)
        assert set(fig2_net.edges()) == before

    @pytest.mark.parametrize("mode", [1, 2], ids=["mode1", "mode2"])
    def test_incremental_audit_under_stress(self, mode):
        # beta=0 has the most discontinuous change statistics; a long run
        # followed by the built-in audit exercises incremental updates
        # node-level terms after the dependent ones: a mode-1 covariate in the
        # mode-1 case, a mode-2 factor and sociality in the mode-2 case
        if mode == 1:
            attrs = make_attrs1(["a", "a", "b", "a"], numeric=("x", [0.5, -1.0, 2.0, 0.0]))
            net = from_edge_list(4, 3, [])
            homophily = (
                ModelTerm(kind="b1nodematch", attribute="group", beta=0.0),
                ModelTerm(kind="b1nodematch", attribute="group", alpha=0.0),
            )
            node_level = (ModelTerm(kind="b1cov", attribute="x"),)
            theta = [0.1, 0.5, 0.3, -0.2, 0.2]
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
            node_level = (ModelTerm(kind="b2factor", attribute="kind"), ModelTerm(kind="b2sociality"))
            theta = [0.1, 0.5, 0.4, 0.3, 0.2, 0.3, -0.2, -0.3, 0.2, -0.1, 0.0, 0.3, -0.2, 0.1]
        spec = ModelSpec(
            (ModelTerm(kind="edges"), *homophily, ModelTerm(kind="b2star2"), *node_level)
        )
        control = SamplerControl(burn_in=0, interval=1, sample_size=20_000, seed=11)
        sample = simulate(bind(spec, net, attrs), theta, net, control)
        final = bind(spec, net, attrs).stats(sample.final_network)
        assert np.max(np.abs(final - sample.stats[-1])) <= 1e-8
        # the same chain, audited at every 200th state rather than the last
        chain = Chain(net, bind(spec, net, attrs), theta, _generator(11))
        for _ in range(100):
            chain.run(200)
            chain.audit()
        assert net == sample.final_network

    @pytest.mark.slow
    @pytest.mark.parametrize("which", ["alpha", "beta"])
    def test_long_chain_drift_stays_within_audit_tolerance(self, which):
        # `Chain.audit` allows 1e-8 plus one ulp of the largest |statistic|
        # per accepted toggle, and a drift past that is a program fault that
        # `profile` lets propagate; on a 400x200 network (the one
        # `perfbench.workloads.random_bipartite(101)` draws) at a stable theta
        # the running vector of a 1e6-proposal chain stays within 1e-8 itself
        rng = np.random.default_rng(101)
        B = rng.random((400, 200)) < 0.025
        groups = rng.integers(0, 3, size=400)
        net = from_edge_list(400, 200, [(i + 1, 400 + k + 1) for i, k in zip(*np.nonzero(B))])
        attrs = make_attrs1([f"g{g}" for g in groups])
        spec = ModelSpec(
            (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", **{which: 0.5}))
        )
        model = bind(spec, net, attrs)
        chain = Chain(net, model, [-3.66, 0.1], _generator(5))
        for _ in range(10):
            chain.run(100_000)
            # compared without `audit`, which would reset the running vector
            drift = float(np.max(np.abs(model.stats(net) - np.asarray(chain.stats))))
            assert drift <= 1e-8

    @pytest.mark.parametrize("which", ["alpha", "beta"])
    def test_audit_passes_a_sound_chain_on_a_large_network(self, which):
        # a 2000x1000 chain that grows from 6000 edges towards density 0.2;
        # after 2e5 proposals the rounding of its running sums alone puts the
        # alpha statistic about 1.3e-6 (beta 6.5e-8) off the recount, which
        # the audit must accept, since that error grows with the accepted
        # toggles and the size of the statistic
        rng = np.random.default_rng(3)
        n1, n2 = 2000, 1000
        dyads = rng.choice(n1 * n2, size=6000, replace=False).tolist()
        groups = rng.integers(0, 3, size=n1)
        net = from_edge_list(n1, n2, [(d // n2 + 1, n1 + 1 + d % n2) for d in dyads])
        spec = ModelSpec(
            (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", **{which: 0.5}))
        )
        model = bind(spec, net, make_attrs1([f"g{g}" for g in groups]))
        control = SamplerControl(burn_in=200_000, interval=1, sample_size=1, seed=3)
        sample = simulate(model, [math.log(0.2 / 0.8), 0.0], net, control)
        assert sample.proposals == 200_001


# The second case puts node-level terms of both modes after the nodematch
# term, so the chain's per-node log-odds table carries b2sociality, b1cov
# and edges while only the nodematch kernel runs per proposal.
DETAILED_BALANCE_CASES = {
    "edges-alpha": (
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", alpha=0.5)),
        [1.0, -1.0],
    ),
    "alpha-then-node-level": (
        (ModelTerm(kind="b1nodematch", attribute="group", alpha=0.5), ModelTerm(kind="b2sociality"),
         ModelTerm(kind="b1cov", attribute="x"), ModelTerm(kind="edges")),
        [-0.8, 0.4, -0.3, 0.6, 0.3],
    ),
}


def test_detailed_balance_against_enumeration():
    attrs = make_attrs1(["a", "a"], numeric=("x", [0.5, -1.0]))
    for case, (terms, theta) in DETAILED_BALANCE_CASES.items():
        spec = ModelSpec(terms)
        exact_model = ExactModel(spec, attrs, 2, 2)
        exact = exact_model.probabilities(theta)
        net = from_edge_list(2, 2, [])
        chain = Chain(net, bind(spec, net, attrs), theta, _generator(21))
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
        assert tv <= 0.015, case


def test_the_empty_dyad_is_uniform_when_most_tries_miss():
    # 3 empty dyads of 450, so a try at a uniform dyad misses 149 times in
    # 150; at theta +30 every adding proposal is accepted and every removal
    # refused, so a chain's first accepted toggle is its first empty pick
    empty = [(1, 31), (15, 38), (30, 45)]
    net0 = from_edge_list(
        30, 15,
        [(i, k) for i in range(1, 31) for k in range(31, 46) if (i, k) not in empty],
    )
    spec = edges_spec()
    counts = dict.fromkeys(empty, 0)
    for seed in range(3000):
        net = net0.copy()
        chain = Chain(net, bind(spec, net, Attributes()), [30.0], _generator(seed))
        while not chain.step():
            pass
        counts[chain.last_dyad] += 1
    # each count is Binomial(3000, 1/3): mean 1000, sd 25.8; 5 sd each way
    assert all(abs(c - 1000) <= 129 for c in counts.values()), counts


@pytest.mark.parametrize("n1,n2,empty", [(0, 3, 1), (3, 0, 2), (0, 0, 1)])
def test_chain_refuses_a_network_without_dyads(n1, n2, empty):
    net = from_edge_list(n1, n2, [])
    model = bind(edges_spec(), net, Attributes())
    with pytest.raises(ValueError, match=f"mode {empty} has no nodes"):
        Chain(net, model, [0.0], _generator(0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_chain_refuses_a_non_finite_theta(bad):
    # a NaN log ratio compares False with 0, so it would accept every proposal
    net = from_edge_list(2, 2, [])
    model = bind(edges_spec(), net, Attributes())
    with pytest.raises(ValueError, match="theta must be finite"):
        Chain(net, model, [bad], _generator(0))
    assert net.edge_count == 0


def test_control_validation():
    with pytest.raises(ValueError, match="burn_in must be at least 0"):
        SamplerControl(burn_in=-1)
    with pytest.raises(ValueError, match="interval"):
        SamplerControl(interval=0)
    assert SamplerControl(burn_in=None).resolved_burn_in(450) == 2**14
    assert SamplerControl(burn_in=None).resolved_burn_in(1500) == 2**15
    assert SamplerControl(burn_in=7).resolved_burn_in(450) == 7
    assert SamplerControl(interval=np.int64(8)).interval == 8
    assert SamplerControl(seed=np.int64(3)).seed == 3
    sequence = np.random.SeedSequence(3)
    assert SamplerControl(seed=sequence).seed is sequence


@pytest.mark.parametrize("field,value", [
    ("burn_in", 100.0), ("burn_in", True), ("interval", 8.0), ("interval", True),
    ("interval", None), ("sample_size", 10.5), ("sample_size", False), ("sample_size", "10"),
])
def test_control_refuses_a_count_that_is_not_an_int(field, value):
    # a float fails deep inside the chain, and True would run as 1
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        SamplerControl(**{field: value})


@pytest.mark.parametrize("seed", [True, 1.5, -1, "7"], ids=repr)
def test_control_refuses_a_seed_that_is_not_a_count(seed):
    # True would run as seed 1, and 1.5 would fail inside numpy
    with pytest.raises(ValueError, match="seed must be"):
        SamplerControl(seed=seed)


# -- the uniform-stream contract ------------------------------------------
#
# A seeded chain is a pure function of its seed only if it draws its
# uniforms in one fixed order: the TNT coin (only when 0 < E < D), then the
# edge index or one uniform dyad per try until a try is empty, then the
# accept uniform (only when the log ratio is negative), refilled lazily from
# `rng.random(block)`.  These fingerprints were recorded before the step
# loop was rewritten; any change to that order changes them.  Every case
# with 20,000 proposals draws more than one 16,384-uniform block.  The
# keep-levels, b2beta-diff and exponent-end cases were recorded before the
# chain kept its own nodematch count tables, which must not change a bit.
# The six cases with an alpha strictly between 0 and 1 were re-recorded
# when the alpha kernel began to sum in ascending node order instead of
# neighbour-set order: the same toggles, with sums that differ in the last
# bits.  tnt-b2diff and tnt-dense-fallback were re-recorded when the full
# statistic became its shared-partner spectrum times the power table: the
# starting statistics moved in the last bits (at most 2.7e-15 relative),
# with the same accepted toggles and the same final edge set.
# tnt-dense-fallback was re-recorded again when the empty dyad came to be
# drawn by rejection alone: its adding proposals read more tries before
# the accept uniform, so the stream after the first one moved.


def _digest(rows, net, accepted) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(rows, dtype=np.float64).tobytes())
    h.update(repr(sorted(net.edges())).encode())
    h.update(str(accepted).encode())
    return h.hexdigest()


def _contract_attrs():
    return random_attrs(np.random.default_rng(7), 30, 15)


def _chain_case(net, terms, theta, seed, chunks, chunk, attrs=None):
    attrs = _contract_attrs() if attrs is None else attrs
    spec = ModelSpec((ModelTerm(kind="edges"), *terms))
    chain = Chain(net, bind(spec, net, attrs), theta, _generator(seed))
    rows = []
    for _ in range(chunks):
        chain.run(chunk)
        rows.append(list(chain.stats))
    chain.audit()
    return _digest(rows, net, chain.accepted)


def _net30(density):
    return random_net(np.random.default_rng(3), 30, 15, density)


def _full(n1, n2, missing=()):
    return from_edge_list(
        n1, n2,
        [(i, k) for i in range(1, n1 + 1) for k in range(n1 + 1, n1 + n2 + 1)
         if (i, k) not in missing],
    )


ALPHA = ModelTerm(kind="b1nodematch", attribute="group", alpha=0.5)
BETA = ModelTerm(kind="b1nodematch", attribute="group", beta=0.5)
B2DIFF = ModelTerm(kind="b2nodematch", attribute="kind", alpha=0.5, diff=True)
KEEP_ALPHA = ModelTerm(kind="b1nodematch", attribute="group", alpha=0.5, keep_levels=("a",))
KEEP_BETA = ModelTerm(kind="b2nodematch", attribute="kind", beta=0.5, keep_levels=("b",))
B2BETA_DIFF = ModelTerm(kind="b2nodematch", attribute="kind", beta=0.5, diff=True)
ALPHA_ENDS = tuple(
    ModelTerm(kind=f"b{m}nodematch", attribute=a, alpha=e)
    for m, a in ((1, "group"), (2, "kind")) for e in (0.0, 1.0)
)
BETA_ENDS = tuple(
    ModelTerm(kind=f"b{m}nodematch", attribute=a, beta=e)
    for m, a in ((1, "group"), (2, "kind")) for e in (0.0, 1.0)
)


def _case30(terms, theta, seed):
    return lambda: _chain_case(_net30(0.2), terms, theta, seed, 20, 1000)


def _case2x2(net, theta, seed):
    return lambda: _chain_case(net(), (), theta, seed, 20, 100, attrs=Attributes())


CONTRACT_CASES = {
    "tnt-edges": _case30((), [-1.3], 1),
    "tnt-alpha": _case30((ALPHA,), [-1.5, 0.6], 2),
    "tnt-beta": _case30((BETA,), [-1.5, 0.6], 3),
    "tnt-b2diff": _case30((B2DIFF,), [-1.5, 0.4, -0.3], 4),
    # E == 0 and E == 1 recur on a sparse 2x2 chain started empty
    "tnt-from-empty": _case2x2(lambda: from_edge_list(2, 2, []), [-2.0], 5),
    # N0 == 0 and N0 == 1 recur on a dense 2x2 chain started full
    "tnt-from-full": _case2x2(lambda: _full(2, 2), [2.0], 6),
    # D == 1: both TNT branches collapse onto the one dyad
    "tnt-one-dyad": lambda: _chain_case(
        from_edge_list(1, 1, []), (), [0.3], 7, 20, 50, attrs=Attributes()),
    # one empty dyad out of 450: an adding proposal takes 450 tries on
    # average before it lands on the empty dyad
    "tnt-dense-fallback": lambda: _chain_case(
        _full(30, 15, missing={(7, 40)}), (ALPHA,), [8.0, 0.1], 8, 10, 100),
    "tnt-empty-30x15": lambda: _chain_case(
        from_edge_list(30, 15, []), (BETA,), [-1.5, 0.6], 9, 20, 1000),
    # nodes outside the kept levels have group -1 and no count-table row
    "tnt-keep-levels": _case30((KEEP_ALPHA, KEEP_BETA), [-1.5, 0.4, 0.3], 12),
    "tnt-b2beta-diff": _case30((B2BETA_DIFF,), [-1.5, 0.5, -0.2], 13),
    # exponents 0 and 1, the two ends of the pw/dpw tables
    "tnt-alpha-0-1": _case30(ALPHA_ENDS, [-1.5, 0.4, 0.05, 0.3, 0.05], 14),
    "tnt-beta-0-1": _case30(BETA_ENDS, [-1.5, 0.4, 0.05, 0.3, 0.05], 15),
}

CONTRACT_DIGESTS = {
    "tnt-alpha": "b588b67fd71f9b4a349e667190b7c0426059981eadfa5daf27af0715fa1bb0c4",
    "tnt-alpha-0-1": "3a4181b8ae08462b46d28fc98c44e23d9b19d16f5d99533a8e4fae8b0b8cc32c",
    "tnt-b2beta-diff": "748f240a38c534d6f48d2de8acab261e9b72b69b353068b14dbe1d60dcf4866d",
    "tnt-b2diff": "595e1d0fcd449754caa406948f1860acb244ada36bef84038d45a76759ba084d",
    "tnt-beta": "7296e6e7b46d387f54d0c1bc51dce00e3c2144e3beae291b8c8c21be935312a4",
    "tnt-beta-0-1": "7c950c52154d613e140ebc2da10a3472fac7fee8610b2ecab7e510656d9f9cbc",
    "tnt-dense-fallback": "9d20a8d8125dd7651eaa94fd27ac93f38b5e838c804c9e258f06802bf6349b84",
    "tnt-edges": "4d28844ef985237c8169377ea0dfee161ffa6e0b5201a1c64ef28d5b4a79650a",
    "tnt-empty-30x15": "6b83043857407d0c82a0e935ed6a9b7827c7863a0430f8c79f7d94143829dc3b",
    "tnt-from-empty": "fd28a999b40b854e3ad501ba64f67137c1fb6dc61629e5603817ba73a153e5ca",
    "tnt-from-full": "c96e1afa25466ecb919ba24116ff678361999343a9baa9ba170f11dee3332dc6",
    "tnt-keep-levels": "22828c251ec1d5bfe5088b208209dc37eba22aad47f0b61ebadb23ac03053785",
    "tnt-one-dyad": "4c529adc3044d5b46fdf9d823dda1aec85f6a4ec4e8aa6e7b26b4da1d9be67bf",
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_seeded_chains_keep_their_uniform_stream(case):
    assert CONTRACT_CASES[case]() == CONTRACT_DIGESTS[case]


def test_steps_one_at_a_time_equal_one_run():
    attrs = _contract_attrs()
    spec = ModelSpec((ModelTerm(kind="edges"), ALPHA))
    chains = []
    for _ in range(2):
        net = _net30(0.2)
        model = bind(spec, net, attrs)
        chains.append(Chain(net, model, [-1.5, 0.6], _generator(10)))
    stepped, ran = chains
    for _ in range(20_000):
        stepped.step()
    ran.run(20_000)
    assert stepped.stats == ran.stats
    assert stepped.net._edge_list == ran.net._edge_list
    assert (stepped.accepted, stepped.proposals, stepped.last_dyad) == (
        ran.accepted, ran.proposals, ran.last_dyad)


@pytest.mark.parametrize("term", [ALPHA, BETA_ENDS[2]], ids=["alpha", "beta"])
def test_audit_catches_a_stale_neighbour_mask(term):
    net = _net30(0.2)
    spec = ModelSpec((ModelTerm(kind="edges"), term))
    chain = Chain(net, bind(spec, net, _contract_attrs()), [-1.5, 0.1], _generator(16))
    chain.run(2000)
    chain.audit()
    # a node's neighbour mask loses its lowest partner bit
    a = next(a for a, mask in enumerate(net.mask) if mask)
    net.mask[a] &= net.mask[a] - 1
    with pytest.raises(RuntimeError, match="network bookkeeping drifted: neighbor masks"):
        chain.audit()


def test_audit_catches_an_edge_dropped_behind_the_masks_back():
    net = _net30(0.2)
    spec = ModelSpec((ModelTerm(kind="edges"), ALPHA))
    chain = Chain(net, bind(spec, net, _contract_attrs()), [-1.5, 0.1], _generator(17))
    chain.run(2000)
    chain.audit()
    # the last edge leaves the edge list but keeps its mask bits
    net._edge_list.pop()
    with pytest.raises(RuntimeError, match="network bookkeeping drifted: neighbor masks"):
        chain.audit()


def test_every_accepted_toggle_keeps_the_edge_list_in_order():
    # the loop toggles the network itself; checked after every proposal, a
    # misplaced edge fails here before a later proposal can read it
    net = _net30(0.2)
    chain = Chain(net, bind(edges_spec(), net, Attributes()), [-1.0], _generator(19))
    order = list(net.edges())
    at_end = inside = 0
    for _ in range(3000):
        if chain.step():
            if chain.last_dyad in order:
                at_end += order[-1] == chain.last_dyad
                inside += order[-1] != chain.last_dyad
            toggle_in_list(order, chain.last_dyad)
        assert net._edge_list == order
        net.check_consistency()
    # the last edge is removed, which moves no edge, and so are others
    assert at_end > 0 and inside > 0


def test_audit_catches_an_edge_listed_twice():
    # a listed edge, listed again, rebuilds the same masks
    net = _net30(0.2)
    spec = ModelSpec((ModelTerm(kind="edges"), ALPHA))
    chain = Chain(net, bind(spec, net, _contract_attrs()), [-1.5, 0.1], _generator(18))
    chain.run(2000)
    chain.audit()
    net._edge_list.append(net._edge_list[0])
    with pytest.raises(RuntimeError, match="network bookkeeping drifted: the edge list holds an edge twice"):
        chain.audit()


# A network's answers depend on its edges alone, not on the toggles that
# built it: after a seeded history of toggles, the network, its copy and a
# network rebuilt from its sorted edges give the same bits at every dyad,
# and the network and its copy run the same seeded chain.  TNT picks the
# edge to remove by its place in the edge list, which the rebuilt network
# orders differently, so the rebuild runs a chain of its own.


def _toggled_twins():
    rng = np.random.default_rng(25)
    net = _net30(0.2)
    for _ in range(3000):
        net.toggle(int(rng.integers(1, 31)), int(rng.integers(31, 46)))
    return [net, net.copy(), from_edge_list(30, 15, sorted(net.edges()))]


def test_copies_and_rebuilds_give_the_same_bits():
    twins = _toggled_twins()
    terms = (ALPHA, ModelTerm(kind="b2nodematch", attribute="kind", alpha=0.5))
    model = bind(ModelSpec((ModelTerm(kind="edges"), *terms)), twins[0], _contract_attrs())
    for i in range(1, 31):
        for k in range(31, 46):
            deltas = {model.delta(net, i, k).tobytes() for net in twins}
            assert len(deltas) == 1, (i, k)
    theta = [-1.5, 0.6, 0.3]
    digests = {_chain_case(net, terms, theta, 26, 5, 1000) for net in twins[:2]}
    assert len(digests) == 1


# The criterion-5 chains of the chain-2x2 benchmark, driven one `step()` at
# a time: the 2x2 state code after every proposal, rebuilt from
# `last_dyad` on each accepted toggle, plus `accepted` and `proposals`.
# Recorded before the loop kept its state between calls.


def _step_tally_digest(theta, index):
    attrs = make_attrs1(["a", "a"])
    spec = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", alpha=0.5))
    )
    net = from_edge_list(2, 2, [])
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([19, index])))
    chain = Chain(net, bind(spec, net, attrs), theta, rng)
    chain.run(5000)
    code = sum(1 << ((i - 1) * 2 + (k - 3)) for i, k in net.edges())
    codes = bytearray()
    step = chain.step
    for _ in range(20_000):
        if step():
            i, k = chain.last_dyad
            code ^= 1 << ((i - 1) * 2 + (k - 3))
        codes.append(code)
    h = hashlib.sha256(bytes(codes))
    h.update(f"{chain.accepted} {chain.proposals}".encode())
    return h.hexdigest()


STEP_TALLY_DIGESTS = {
    (0.0, 0.0): "e762ab0b00b43301d686b61de52cd7c1cc0aa1dfb181349bf763171808cabd5a",
    (1.0, 1.0): "b7bae725ef1fe1847aa177e9e43bf63eb0a6b17a1a8946b81fa0612d3b38b85b",
}


@pytest.mark.parametrize("theta", sorted(STEP_TALLY_DIGESTS), ids=str)
def test_step_driven_tallies_keep_their_bits(theta):
    index = sorted(STEP_TALLY_DIGESTS).index(theta)
    assert _step_tally_digest(list(theta), index) == STEP_TALLY_DIGESTS[theta]


# The loop keeps its locals, the uniform stream among them, between calls,
# so any mix of calls must make the chain `run(n)` makes.
# `audit()` replaces the running statistics with a recount; with exponents
# 0 and 1 every change statistic is a multiple of 1/2, the sums are exact,
# and the recount has the same bits as the running vector.


def test_interleaved_calls_equal_one_run():
    attrs = _contract_attrs()
    spec = ModelSpec((
        ModelTerm(kind="edges"),
        ALPHA_ENDS[1],
        ModelTerm(kind="b2nodematch", attribute="kind", beta=0.0, diff=True),
        ModelTerm(kind="b1factor", attribute="group"),
    ))
    theta = [-1.5, 0.2, 0.4, -0.3, 0.2]
    chains = []
    for _ in range(2):
        net = _net30(0.2)
        chains.append(Chain(net, bind(spec, net, attrs), theta, _generator(23)))
    mixed, ran = chains
    rng = np.random.default_rng(24)
    total = 0
    while total < 20_000:
        what = int(rng.integers(3))
        if what == 0:
            mixed.step()
            total += 1
        elif what == 1:
            n = int(rng.integers(0, 400))
            mixed.run(n)
            total += n
        else:
            mixed.audit()
    ran.run(total)
    assert mixed.stats == ran.stats
    assert mixed.net._edge_list == ran.net._edge_list
    assert (mixed.accepted, mixed.proposals, mixed.last_dyad) == (
        ran.accepted, ran.proposals, ran.last_dyad)
    ran.audit()


# `sample` writes its rows inside the loop, in one call; it must give the
# rows and the chain that rounds of `run` give, each copying `stats`.

_SAMPLE_SPEC = ModelSpec((
    ModelTerm(kind="edges"), ALPHA,
    ModelTerm(kind="b2nodematch", attribute="kind", beta=0.5),
    ModelTerm(kind="b1factor", attribute="group"), ModelTerm(kind="b2sociality"),
))
_SAMPLE_THETA = [-1.5, 0.4, 0.3, -0.3] + [0.05] * 15


def _sample_twins(seed):
    chains = []
    for _ in range(2):
        net = _net30(0.2)
        chains.append(Chain(net, bind(_SAMPLE_SPEC, net, _contract_attrs()), _SAMPLE_THETA, _generator(seed)))
    return chains


@pytest.mark.parametrize("size,interval", [(300, 37), (5, 0), (1, 20_000)])
def test_sample_equals_rounds_of_run(size, interval):
    sampled, ran = _sample_twins(51)
    sampled.run(500)
    ran.run(500)
    rows = sampled.sample(size, interval)
    expected = np.empty((size, ran.model.p))
    for s in range(size):
        ran.run(interval)
        expected[s] = ran.stats
    ran.audit()
    assert rows.shape == (size, ran.model.p)
    assert rows.tobytes() == expected.tobytes()
    assert sampled.stats == ran.stats
    assert sampled.net._edge_list == ran.net._edge_list
    assert (sampled.accepted, sampled.proposals, sampled.last_dyad) == (
        ran.accepted, ran.proposals, ran.last_dyad)


def test_a_sample_of_no_rows_leaves_the_chain_as_it_was():
    sampled, kept = _sample_twins(53)
    for chain in (sampled, kept):
        chain.run(1000)
    rows = sampled.sample(0, 48)
    assert rows.shape == (0, sampled.model.p)
    kept.audit()  # `sample` ends with one
    assert sampled.stats == kept.stats
    assert sampled.net._edge_list == kept.net._edge_list
    assert (sampled.accepted, sampled.proposals, sampled.last_dyad) == (
        kept.accepted, kept.proposals, kept.last_dyad)
    sampled.run(1000)
    kept.run(1000)
    assert sampled.stats == kept.stats


@pytest.mark.parametrize("size,interval,name", [
    (-1, 8, "size"), (1.5, 8, "size"), (True, 8, "size"),
    (4, -1, "interval"), (4, 1.5, "interval"), (4, True, "interval"),
], ids=repr)
def test_sample_refuses_a_count_it_cannot_use(size, interval, name):
    # a negative size raised numpy's negative-dimensions error, and a float
    # size a TypeError
    net = from_edge_list(3, 3, [])
    chain = Chain(net, bind(edges_spec(), net, Attributes()), [0.0], _generator(0))
    chain.run(10)
    before = (chain.accepted, chain.proposals, chain.last_dyad, list(net._edge_list))
    with pytest.raises(ValueError, match=f"{name} must be an int >= 0"):
        chain.sample(size, interval)
    assert (chain.accepted, chain.proposals, chain.last_dyad, list(net._edge_list)) == before
    assert chain.sample(np.int64(2), np.int64(3)).shape == (2, 1)
    assert chain.proposals == 16


def test_a_chain_that_raised_stays_dead(monkeypatch):
    net = _net30(0.2)
    model = bind(ModelSpec((ModelTerm(kind="edges"), ALPHA)), net, _contract_attrs())
    ev = model.evaluators[1]
    change = ev.change
    calls = 0

    def failing(mask, i, k):
        nonlocal calls
        calls += 1
        if calls == 50:
            raise ZeroDivisionError("kernel failed")
        return change(mask, i, k)

    monkeypatch.setattr(ev, "change", failing)
    chain = Chain(net, model, [-1.5, 0.6], _generator(3))
    chain.run(10)
    assert chain.step() in (True, False)
    with pytest.raises(ZeroDivisionError, match="kernel failed"):
        chain.run(100)
    dead = "the chain stopped when an earlier run or step raised"
    with pytest.raises(RuntimeError, match=dead):
        chain.step()
    with pytest.raises(RuntimeError, match=dead):
        chain.run(5)
    # a bare StopIteration would end this map quietly
    step = chain.step
    with pytest.raises(RuntimeError, match=dead):
        list(map(lambda _: step(), range(3)))


def test_the_chain_calls_no_node_level_kernel():
    # node-level terms reach the chain through the per-node table alone,
    # and their running statistics agree with a recount
    net = _net30(0.2)
    spec = ModelSpec((
        ModelTerm(kind="edges"), ModelTerm(kind="b1factor", attribute="group"), ALPHA,
        ModelTerm(kind="b2sociality"), ModelTerm(kind="b2cov", attribute="z"),
    ))
    model = bind(spec, net, _contract_attrs())
    assert not any(hasattr(ev, "change") for ev in model.evaluators if ev.dyad_independent)
    chain = Chain(net, model, [-1.5, 0.2, 0.6] + [0.05] * 15 + [0.3], _generator(27))
    for _ in range(5):
        chain.run(2000)
        chain.audit()
    assert chain.accepted > 0


@pytest.mark.parametrize("bad", [-4, 2.5, True, "3", None, np.float64(2.0)], ids=repr)
def test_run_refuses_a_count_it_cannot_use(bad):
    # a negative count moved `proposals` back, and a float raised inside the
    # loop and left the chain dead
    net = from_edge_list(3, 3, [])
    chain = Chain(net, bind(edges_spec(), net, Attributes()), [0.0], _generator(0))
    chain.run(10)
    with pytest.raises(ValueError, match="proposals must be an int >= 0"):
        chain.run(bad)
    assert chain.proposals == 10
    chain.run(np.int64(2))
    chain.step()
    assert chain.proposals == 13


def test_a_dropped_chain_is_freed_at_once():
    # the suspended loop yields its counters and holds no reference to its
    # chain, so no reference cycle keeps a dropped chain and its
    # 16,384-uniform block alive until the cyclic collector runs
    net = _net30(0.2)
    chain = Chain(net, bind(ModelSpec((ModelTerm(kind="edges"), ALPHA)), net, _contract_attrs()),
                  [-1.5, 0.6], _generator(4))
    chain.run(100)
    ref = weakref.ref(chain)
    del chain
    assert ref() is None


def test_the_chain_draws_a_block_only_when_it_needs_a_uniform():
    # on one dyad at theta 0 every TNT proposal reads exactly one uniform:
    # the network is empty or full, so there is no coin; the dyad is the
    # first empty-dyad try or the edge index; and the log ratio is 0, so
    # there is no accept uniform
    class CountingRng:
        def __init__(self):
            self.calls = 0
            self.rng = _generator(0)

        def random(self, n):
            self.calls += 1
            return self.rng.random(n)

    net = from_edge_list(1, 1, [])
    rng = CountingRng()
    chain = Chain(net, bind(edges_spec(), net, Attributes()), [0.0], rng)
    chain.run(0)
    assert rng.calls == 0
    assert (chain.accepted, chain.proposals, chain.last_dyad) == (0, 0, None)
    chain.run(UNIFORM_BLOCK)
    assert rng.calls == 1
    chain.step()
    assert rng.calls == 2


# `set_theta` changes only what later proposals run at: the network, the
# running statistics, the counters and the uniform stream carry on.


def test_a_chain_set_to_theta_before_its_first_proposal_is_the_chain_built_there():
    attrs = _contract_attrs()
    spec = ModelSpec((
        ModelTerm(kind="edges"), ALPHA,
        ModelTerm(kind="b1factor", attribute="group"), ModelTerm(kind="b2sociality"),
    ))
    theta = [-1.5, 0.6, -0.3] + [0.05] * 15
    tallies = []
    for start in (theta, [0.7, -2.0, 1.1] + [-0.3] * 15):
        net = _net30(0.2)
        chain = Chain(net, bind(spec, net, attrs), start, _generator(41))
        chain.set_theta(theta)
        tally = []
        for _ in range(20_000):
            chain.step()
            tally.append((chain.accepted, chain.last_dyad))
        tallies.append((tally, chain.stats, net._edge_list))
    assert tallies[0] == tallies[1]


def test_a_chain_switched_to_another_theta_samples_that_theta():
    # the criterion-5 2x2 network, run at (1, 1) and then tallied at (0, 0)
    attrs = make_attrs1(["a", "a"])
    spec = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", alpha=0.5))
    )
    exact_model = ExactModel(spec, attrs, 2, 2)
    net = from_edge_list(2, 2, [])
    chain = Chain(net, bind(spec, net, attrs), [1.0, 1.0], _generator(43))
    chain.run(5000)
    chain.set_theta([0.0, 0.0])
    draws = 400_000
    counts = np.zeros(16)
    code = exact_model.state_index(net)
    for _ in range(draws):
        if chain.step():
            i, k = chain.last_dyad
            code ^= 1 << ((i - 1) * 2 + (k - 3))
        counts[code] += 1
    chain.audit()
    assert 0.5 * float(np.abs(counts / draws - exact_model.probabilities([0.0, 0.0])).sum()) <= 0.01


@pytest.mark.parametrize("bad,message", [
    ([0.0, 0.5, 1.0], "theta has 3 entries for 2 statistics"),
    ([math.nan, 0.5], "theta must be finite"),
], ids=["length", "nan"])
def test_set_theta_refuses_a_bad_theta_and_changes_nothing(bad, message):
    chains = []
    for _ in range(2):
        net = _net30(0.2)
        model = bind(ModelSpec((ModelTerm(kind="edges"), ALPHA)), net, _contract_attrs())
        chains.append(Chain(net, model, [-1.5, 0.6], _generator(47)))
    refused, kept = chains
    refused.run(1000)
    with pytest.raises(ValueError, match=message):
        refused.set_theta(bad)
    refused.run(4000)
    refused.audit()
    kept.run(5000)
    kept.audit()
    assert refused.stats == kept.stats
    assert (refused.accepted, refused.proposals, refused.last_dyad) == (
        kept.accepted, kept.proposals, kept.last_dyad)
