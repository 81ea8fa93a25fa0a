"""Acceptance suite: one test per release criterion, run in order.

Each test prints a single `ACCEPTANCE CRITERION n: PASS/FAIL` line (visible
with `pytest -s` or in the captured output of a failing test) and then
asserts.  Criteria involving Monte Carlo use fixed seeds and pinned
tolerances.
"""

import math
import time

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
    exact_loglik,
    exact_mle,
    from_edge_list,
    mcmcmle,
    mdsp_spectrum,
    mesp_spectrum,
    mple,
    project,
    recompose_from_spectrum,
)
from bipergm.cli import main
from bipergm.io import save_attributes, save_network
from bipergm.sampler import _generator, simulate

import reference as ref
from conftest import FIG2_EDGES, make_attrs1, random_attrs, random_net

GRID = [g / 10.0 for g in range(11)]
SQRT2 = math.sqrt(2.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def _nodematch(which: str, value: float, **kw) -> ModelSpec:
    return ModelSpec(
        (
            ModelTerm(kind="edges"),
            ModelTerm(kind="b1nodematch", attribute="group", **{which: value}, **kw),
        )
    )


def test_criterion_1_statistic_coincidence():
    """alpha=1, beta=1, and the plain matching two-star count agree exactly."""
    start = time.time()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(200):
        n1 = int(rng.integers(2, 11))
        n2 = int(rng.integers(1, 11))
        net = random_net(rng, n1, n2, density=float(rng.uniform(0.1, 0.7)))
        table = AttributeTable(1, n1)
        table.add_categorical("group", [str(v) for v in rng.choice(["a", "b"], size=n1)])
        attrs = Attributes(mode1=table)
        cats = {i + 1: table.categorical("group").level_of(i) for i in range(n1)}
        stars = ref.matching_two_stars(n1, n2, ref.edge_set(net), cats)
        a = bind(_nodematch("alpha", 1.0), net, attrs).stats(net)[1]
        b = bind(_nodematch("beta", 1.0), net, attrs).stats(net)[1]
        assert a == float(stars) and b == float(stars), (
            f"coincidence broken: alpha1={a} beta1={b} two-stars={stars}"
        )
        checked += 1
    elapsed = time.time() - start
    ok = checked == 200 and elapsed < 5.0
    report(1, ok, f"{checked} networks, exact equality, {elapsed:.2f}s (< 5s)")
    assert ok


def _spec_pool(rng, attrs):
    levels1 = attrs.mode1.categorical("group").levels
    e = rng.uniform(0.0, 1.0, size=9)
    pool = [
        ModelTerm(kind="edges"),
        ModelTerm(kind="b1cov", attribute="x"),
        ModelTerm(kind="b2cov", attribute="z"),
        ModelTerm(kind="b1factor", attribute="group"),
        ModelTerm(kind="b2factor", attribute="kind"),
        ModelTerm(kind="b2star2"),
        ModelTerm(kind="b2degree1"),
        ModelTerm(kind="b2sociality"),
        ModelTerm(kind="b1nodematch", attribute="group", alpha=e[0]),
        ModelTerm(kind="b1nodematch", attribute="group", beta=e[1]),
        ModelTerm(kind="b2nodematch", attribute="kind", alpha=e[2]),
        ModelTerm(kind="b2nodematch", attribute="kind", beta=e[3]),
        ModelTerm(kind="b1nodematch", attribute="group", alpha=e[4], diff=True),
        ModelTerm(kind="b1nodematch", attribute="group", beta=e[5], diff=True),
        ModelTerm(kind="b2nodematch", attribute="kind", alpha=e[6], diff=True),
        ModelTerm(kind="b2nodematch", attribute="kind", beta=e[7], diff=True),
        ModelTerm(kind="b1nodematch", attribute="group", beta=e[8], keep_levels=levels1[:1]),
    ]
    picks = rng.choice(len(pool), size=int(rng.integers(1, 4)), replace=False)
    return ModelSpec(tuple(pool[p] for p in sorted(picks)))


def test_criterion_2_change_statistic_equivalence():
    """Incremental change statistics equal full-statistic differences."""
    start = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        n1 = int(rng.integers(2, 9))
        n2 = int(rng.integers(2, 9))
        net = random_net(rng, n1, n2, density=float(rng.uniform(0.1, 0.7)))
        attrs = random_attrs(rng, n1, n2, levels=("a", "b"))
        spec = _spec_pool(rng, attrs)
        model = bind(spec, net, attrs)
        i = int(rng.integers(1, n1 + 1))
        k = int(rng.integers(n1 + 1, n1 + n2 + 1))
        delta = model.delta(net, i, k)
        plus = net.copy()
        if not plus.has_edge(i, k):
            plus.toggle(i, k)
        minus = plus.copy()
        minus.toggle(i, k)
        gap = float(np.max(np.abs(delta - (model.stats(plus) - model.stats(minus)))))
        worst = max(worst, gap)
        assert gap <= 1e-10, f"change-stat mismatch {gap:g} for spec {spec}"
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(2, ok, f"1000 triples, worst gap {worst:.2e} (<= 1e-10), {elapsed:.2f}s (< 10s)")
    assert ok


def test_criterion_3_beta_zero_change_bound():
    """Every beta=0 homophily change-statistic component over all dyads of
    100 random networks lies in {0, 1/2, 1}: 0 with no matching co-edge,
    1 with exactly one, 1/2 with two or more.

    With 0**0 = 0 the beta=0 statistic is half the number of edges that
    have at least one matching co-edge.  With u matching co-edges at the
    shared node, toggling the dyad adds nothing when u=0, brings both the
    new edge and its only partner into the count when u=1, and only the
    new edge when u>=2.  Each component is checked against that value and
    against the brute-force difference of `reference.nodematch_beta`.  The
    criterion as first worded ({0, 1/2}) and its amendment are recorded in
    docs/decisions.md.
    """
    rng = np.random.default_rng(303)
    tally = {0: 0, 1: 0, 2: 0}  # u=0, u=1, u>=2
    violations = []
    for draw in range(100):
        n1 = int(rng.integers(2, 7))
        n2 = int(rng.integers(2, 7))
        net = random_net(rng, n1, n2, density=float(rng.uniform(0.2, 0.6)))
        table = AttributeTable(1, n1)
        table.add_categorical("group", [str(v) for v in rng.choice(["a", "b"], size=n1)])
        attrs = Attributes(mode1=table)
        model = bind(_nodematch("beta", 0.0), net, attrs)
        edges = ref.edge_set(net)
        cats = {i + 1: table.categorical("group").level_of(i) for i in range(n1)}
        for i in range(1, n1 + 1):
            for k in range(n1 + 1, n1 + n2 + 1):
                value = float(model.delta(net, i, k)[1])
                u = sum(
                    1 for j in range(1, n1 + 1) if j != i and cats[j] == cats[i] and (j, k) in edges
                )
                tally[min(u, 2)] += 1
                want = {0: 0.0, 1: 1.0}.get(u, 0.5)
                brute = ref.nodematch_beta(
                    n1, n2, edges | {(i, k)}, cats, 0.0
                ) - ref.nodematch_beta(n1, n2, edges - {(i, k)}, cats, 0.0)
                if abs(value - want) > 1e-12 or abs(value - brute) > 1e-12:
                    violations.append((draw, i, k, u, value, want, brute))
    ok = not violations and all(tally.values())
    detail = (
        f"{sum(tally.values())} components checked against 0 (u=0), 1 (u=1), 0.5 (u>=2) "
        f"and the brute-force difference; u=0: {tally[0]}, u=1: {tally[1]}, u>=2: {tally[2]}"
    )
    if violations:
        draw, i, k, u, value, want, brute = violations[0]
        detail += (
            f"; {len(violations)} wrong, first: net {draw}, dyad ({i},{k}) with u={u} "
            f"gives delta={value}, want {want}, brute-force difference {brute}"
        )
    report(3, ok, detail)
    assert ok, detail


def test_criterion_4_spectrum_recomposition_identity():
    """MDSP/MESP recomposition reproduces direct evaluation on the grid."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        n1 = int(rng.integers(2, 9))
        n2 = int(rng.integers(2, 9))
        net = random_net(rng, n1, n2, density=float(rng.uniform(0.1, 0.7)))
        table = AttributeTable(1, n1)
        table.add_categorical("group", [str(v) for v in rng.choice(["a", "b"], size=n1)])
        attrs = Attributes(mode1=table)
        mdsp = mdsp_spectrum(net, attrs, "group")
        mesp = mesp_spectrum(net, attrs, "group")
        for expo in GRID:
            direct_a = bind(_nodematch("alpha", expo), net, attrs).stats(net)[1]
            direct_b = bind(_nodematch("beta", expo), net, attrs).stats(net)[1]
            worst = max(worst, abs(recompose_from_spectrum(mdsp, expo) - direct_a))
            worst = max(worst, abs(recompose_from_spectrum(mesp, expo) - direct_b))
    ok = worst <= 1e-10
    report(4, ok, f"100 networks x 11 exponents, worst gap {worst:.2e} (<= 1e-10)")
    assert ok


@pytest.mark.slow
def test_criterion_5_sampler_state_distribution():
    """2x2 chains reproduce the exact state distribution within TV 0.01."""
    attrs = make_attrs1(["a", "a"])
    draws = 1_000_000
    configs = []
    for t1 in (-1.0, 0.0, 1.0):
        configs.append((ModelSpec((ModelTerm(kind="edges"),)), [t1]))
    hom = ModelSpec(
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group", alpha=0.5))
    )
    for t1 in (-1.0, 0.0, 1.0):
        for t2 in (-1.0, 0.0, 1.0):
            configs.append((hom, [t1, t2]))
    worst_tv, worst_time = 0.0, 0.0
    for idx, (spec, theta) in enumerate(configs):
        start = time.time()
        exact_model = ExactModel(spec, attrs, 2, 2)
        exact = exact_model.probabilities(theta)
        net = from_edge_list(2, 2, [])
        chain = Chain(net, bind(spec, net, attrs), theta, _generator(500 + idx))
        chain.run(5000)
        counts = np.zeros(16)
        code = exact_model.state_index(net)
        for _ in range(draws):
            if chain.step():
                i, k = chain.last_dyad
                code ^= 1 << ((i - 1) * 2 + (k - 3))
            counts[code] += 1
        chain.audit()
        tv = 0.5 * float(np.abs(counts / draws - exact).sum())
        elapsed = time.time() - start
        worst_tv = max(worst_tv, tv)
        worst_time = max(worst_time, elapsed)
        assert tv <= 0.01, f"TV {tv:.4f} > 0.01 for theta={theta}"
        assert elapsed < 60.0, f"configuration took {elapsed:.1f}s (>= 60s)"
    ok = worst_tv <= 0.01 and worst_time < 60.0
    report(
        5,
        ok,
        f"12 configurations x 1e6 draws, worst TV {worst_tv:.4f} (<= 0.01), "
        f"slowest {worst_time:.1f}s (< 60s)",
    )
    assert ok


# -- criteria 6 and 7 share two Monte-Carlo fits ----------------------------

MODERATE_EDGES = [(1, 4), (1, 5), (2, 4), (2, 6), (3, 6)]


@pytest.fixture(scope="module")
def mcmc_fits():
    net = from_edge_list(3, 3, MODERATE_EDGES)
    attrs = make_attrs1(["a", "a", "b"])
    out = {}
    for which in ("alpha", "beta"):
        spec = _nodematch(which, 0.5)
        oracle = ExactModel(spec, attrs, 3, 3)
        theta_star = exact_mle(oracle, net)
        control = SamplerControl(burn_in=4096, interval=8, sample_size=100_000, seed=77)
        fit = mcmcmle(spec, net, attrs, control=control)
        out[which] = (oracle, theta_star, fit)
    return net, attrs, out


@pytest.mark.slow
def test_criterion_6_estimator_correctness(mcmc_fits):
    """MCMC MLE within 0.05 per coordinate of the exact MLE; pseudo-
    likelihood equals the exact MLE for dyadic-independent models."""
    net, attrs, fits = mcmc_fits
    worst_mcmc = 0.0
    for which in ("alpha", "beta"):
        _, theta_star, fit = fits[which]
        gap = float(np.max(np.abs(fit.theta - theta_star)))
        worst_mcmc = max(worst_mcmc, gap)
        assert gap <= 0.05, f"{which}=0.5 fit off by {gap:.4f} (> 0.05)"

    worst_mple = 0.0
    for spec in (
        ModelSpec((ModelTerm(kind="edges"),)),
        ModelSpec((ModelTerm(kind="edges"), ModelTerm(kind="b1factor", attribute="group"))),
    ):
        oracle = ExactModel(spec, attrs, 3, 3)
        theta_star = exact_mle(oracle, net)
        fit = mple(spec, net, attrs)
        gap = float(np.max(np.abs(fit.theta - theta_star)))
        worst_mple = max(worst_mple, gap)
        assert gap <= 1e-6, f"MPLE differs from exact MLE by {gap:g} (> 1e-6)"
    ok = worst_mcmc <= 0.05 and worst_mple <= 1e-6
    report(
        6,
        ok,
        f"mcmcmle worst coordinate gap {worst_mcmc:.4f} (<= 0.05) at 1e5 draws; "
        f"dyadic-independent MPLE gap {worst_mple:.2e} (<= 1e-6)",
    )
    assert ok


@pytest.mark.slow
def test_criterion_7_loglik_bridge(mcmc_fits):
    """Reported log-likelihood within 3 Monte-Carlo sd of the exact value."""
    _net, _attrs, fits = mcmc_fits
    worst_z = 0.0
    for which in ("alpha", "beta"):
        oracle, _, fit = fits[which]
        exact = exact_loglik(oracle, fit.theta, _net)
        z = abs(fit.loglik - exact) / max(fit.loglik_sd, 1e-12)
        worst_z = max(worst_z, z)
        assert z <= 3.0, (
            f"{which}=0.5: loglik {fit.loglik:.4f} (sd {fit.loglik_sd:.4f}) vs exact "
            f"{exact:.4f}, {z:.2f} sd away"
        )
    report(7, worst_z <= 3.0, f"both fits within {worst_z:.2f} reported sd (<= 3)")
    assert worst_z <= 3.0


def _build_synthetic_30x15(tmp_path):
    n1, n2 = 30, 15
    table = AttributeTable(1, n1)
    table.add_categorical("group", ["a" if i % 2 == 0 else "b" for i in range(n1)])
    attrs = Attributes(mode1=table)
    gen_spec = _nodematch("alpha", 0.5)
    empty = from_edge_list(n1, n2, [])
    sample = simulate(
        bind(gen_spec, empty, attrs),
        [-2.6, 0.8],
        empty,
        SamplerControl(burn_in=60_000, interval=1, sample_size=1, seed=2024),
    )
    net = sample.final_network
    net_path = tmp_path / "synthetic.edges"
    attrs_path = tmp_path / "attrs1.tsv"
    save_network(net_path, net)
    save_attributes(attrs_path, table, n1=n1)
    return net_path, attrs_path


@pytest.mark.slow
def test_criterion_8_profile_workflow(tmp_path):
    """Full 11-point alpha and beta profile grids on a synthetic 30x15
    network in under ten minutes, with the alpha=1 and beta=1 rows agreeing
    within Monte-Carlo error."""
    net_path, attrs_path = _build_synthetic_30x15(tmp_path)
    out_dir = tmp_path / "profile_out"
    start = time.time()
    code = main(
        [
            "profile",
            "--network", str(net_path),
            "--attrs1", str(attrs_path),
            "--model", 'edges + b1nodematch("group")',
            "--method", "mcmcmle",
            "--alpha-grid", "default",
            "--beta-grid", "default",
            "--seed", "88",
            "--burnin", "8192",
            "--interval", "48",
            "--samplesize", "3000",
            "--out", str(out_dir),
        ]
    )
    elapsed = time.time() - start
    assert code == 0
    rows = [
        line.split(",")
        for line in (out_dir / "profile.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    header, body = rows[0], rows[1:]
    assert header == [
        "kind", "exponent", "stat", "coef", "coef_se", "coef_mc_sd",
        "p_value", "loglik", "loglik_sd", "status",
    ]
    alphas = {r[1]: r for r in body if r[0] == "alpha"}
    betas = {r[1]: r for r in body if r[0] == "beta"}
    assert len(alphas) == 11 and len(betas) == 11

    a1, b1 = alphas["1"], betas["1"]
    assert a1[-1] == "ok" and b1[-1] == "ok"
    coef_a, mc_a, ll_a, llsd_a = float(a1[3]), float(a1[5]), float(a1[7]), float(a1[8])
    coef_b, mc_b, ll_b, llsd_b = float(b1[3]), float(b1[5]), float(b1[7]), float(b1[8])
    # identical statistics at the linear end: differences are Monte-Carlo only
    coef_bound = 3.0 * math.hypot(mc_a, mc_b) + 2.0 * (mc_a + mc_b)
    ll_bound = 3.0 * math.hypot(llsd_a, llsd_b) + 0.05
    coef_ok = abs(coef_a - coef_b) <= coef_bound
    ll_ok = abs(ll_a - ll_b) <= ll_bound
    ok = coef_ok and ll_ok and elapsed < 600.0
    report(
        8,
        ok,
        f"22 grid fits in {elapsed:.0f}s (< 600s); linear-end agreement: "
        f"|dcoef|={abs(coef_a - coef_b):.4f} (<= {coef_bound:.4f}), "
        f"|dloglik|={abs(ll_a - ll_b):.3f} (<= {ll_bound:.3f})",
    )
    assert elapsed < 600.0
    assert coef_ok, f"coef gap {abs(coef_a - coef_b):.4f} > {coef_bound:.4f}"
    assert ll_ok, f"loglik gap {abs(ll_a - ll_b):.3f} > {ll_bound:.3f}"


def test_criterion_9_worked_example_fidelity(fig2_net, fig2_attrs):
    """Every hand-derived value of the five-edge worked example."""
    checks = []

    def check(label, got, want, tol=1e-12):
        good = abs(got - want) <= tol
        checks.append((label, good))
        assert good, f"{label}: got {got!r}, want {want!r}"

    for expo, want in ((0.0, 3.0), (0.5, 2.0 + SQRT2), (1.0, 4.0)):
        model = bind(_nodematch("alpha", expo), fig2_net, fig2_attrs)
        check(f"alpha={expo}", model.stats(fig2_net)[1], want)
    for expo, want in ((0.0, 2.5), (0.5, (2.0 + 3.0 * SQRT2) / 2.0), (1.0, 4.0)):
        model = bind(_nodematch("beta", expo), fig2_net, fig2_attrs)
        check(f"beta={expo}", model.stats(fig2_net)[1], want)

    reduced = fig2_net.copy()
    reduced.toggle(1, 4)
    for expo in GRID:
        model = bind(_nodematch("alpha", expo), reduced, fig2_attrs)
        check(f"delta_alpha({expo})", float(model.delta(reduced, 1, 4)[1]), 2.0**expo)
        model = bind(_nodematch("beta", expo), reduced, fig2_attrs)
        check(
            f"delta_beta({expo})",
            float(model.delta(reduced, 1, 4)[1]),
            (3.0 * 2.0**expo - 2.0) / 2.0,
        )

    proj = project(fig2_net, 1)
    for pair, want in (((1, 2), 2), ((1, 3), 1), ((2, 3), 1)):
        check(f"projection {pair}", proj.weight(*pair), want)
    mdsp = mdsp_spectrum(fig2_net, fig2_attrs, "group").counts
    mesp = mesp_spectrum(fig2_net, fig2_attrs, "group").counts
    spectra_ok = mdsp == {1: 2, 2: 1} and mesp == {1: 2, 2: 3}
    checks.append(("spectra", spectra_ok))
    assert spectra_ok, f"MDSP={mdsp}, MESP={mesp}"

    ok = all(good for _, good in checks)
    report(9, ok, f"{len(checks)} hand-derived values reproduced")
    assert ok
