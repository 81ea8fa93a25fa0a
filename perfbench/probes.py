"""Fixed layer probes that every traced run makes after the workload pass.

They time single layers on fixed inputs (the frozen 30x15 network, a
seed-0 400x200 network and a 2x2 network), so each per-layer metric has a
value on every workload, whatever layers the workload itself reaches.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from bipergm import cli, io, terms
from bipergm.graph import AttributeTable, Attributes, from_edge_list
from bipergm.sampler import Chain

from .workloads import DATA, random_bipartite

# one model per term kind: (label, term, coefficient used by the chain probe)
KINDS = [
    ("edges", None, 0.0),
    ("b1cov", terms.ModelTerm(kind="b1cov", attribute="x"), 0.1),
    ("b2cov", terms.ModelTerm(kind="b2cov", attribute="z"), 0.1),
    ("b1factor", terms.ModelTerm(kind="b1factor", attribute="group"), 0.1),
    ("b2factor", terms.ModelTerm(kind="b2factor", attribute="kind"), 0.1),
    ("b1nodematch-alpha", terms.ModelTerm(kind="b1nodematch", attribute="group", alpha=0.5), 0.8),
    ("b1nodematch-beta", terms.ModelTerm(kind="b1nodematch", attribute="group", beta=0.5), 0.8),
    ("b2nodematch-alpha", terms.ModelTerm(kind="b2nodematch", attribute="kind", alpha=0.5), 0.8),
    ("b2nodematch-beta", terms.ModelTerm(kind="b2nodematch", attribute="kind", beta=0.5), 0.8),
    ("b2star2", terms.ModelTerm(kind="b2star2"), 0.05),
    ("b2degree1", terms.ModelTerm(kind="b2degree1"), 0.1),
    ("b2sociality", terms.ModelTerm(kind="b2sociality"), 0.05),
]
EDGES = terms.ModelTerm(kind="edges")
# a short MCMC MLE fit, so that every traced run has estimate spans
PROBE_FIT = ["--burnin", "2048", "--interval", "16", "--samplesize", "500", "--seed", "7"]


def _attributes(rng: np.random.Generator, group1: list[str], n2: int) -> Attributes:
    t1 = AttributeTable(1, len(group1))
    t1.add_categorical("group", group1)
    t1.add_numeric("x", rng.normal(size=len(group1)))
    t2 = AttributeTable(2, n2)
    t2.add_categorical("kind", [("u", "v")[j % 2] for j in range(n2)])
    t2.add_numeric("z", rng.normal(size=n2))
    return Attributes(mode1=t1, mode2=t2)


def probe_inputs() -> dict:
    """Label -> (network, attributes) for the layer probes."""
    net30 = io.load_network(DATA / "profile_30x15.edges")
    group30 = io.load_attributes(DATA / "profile_30x15_attrs1.tsv", 1, 30, 15).categorical("group")
    B, groups = random_bipartite(0)
    rows, cols = np.nonzero(B)
    net400 = from_edge_list(400, 200, [(i + 1, 401 + k) for i, k in zip(rows, cols)])
    rng = np.random.default_rng(0)
    return {
        "30x15": (net30, _attributes(rng, [group30.level_of(o) for o in range(30)], 15)),
        "400x200": (net400, _attributes(rng, [f"g{g}" for g in groups], 200)),
        "2x2": (from_edge_list(2, 2, [(1, 3), (2, 3), (2, 4)]), _attributes(rng, ["a", "a"], 2)),
    }


def _per_call(fn, calls: int, repeats: int = 3) -> float:
    """Median over `repeats` of the mean seconds per call of fn(calls)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(calls)
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def _spec(term) -> terms.ModelSpec:
    return terms.ModelSpec((EDGES,) if term is None else (EDGES, term))


def _dyads(net, count: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    i = rng.integers(1, net.n1 + 1, size=count)
    k = rng.integers(net.n1 + 1, net.n + 1, size=count)
    return [(int(a), int(b)) for a, b in zip(i, k)]


def graph_metrics(inputs: dict) -> dict[str, float]:
    metrics = {}
    for label, (net, _) in inputs.items():
        nodes = list(range(1, net.n + 1)) * max(1, 2000 // net.n)

        def neighbors(calls, net=net, nodes=nodes):
            fetch = net.neighbors
            for _ in range(calls // len(nodes)):
                for node in nodes:
                    fetch(node)

        calls = len(nodes) * max(1, 100_000 // len(nodes))
        metrics[f"graph.neighbors_ns.{label}"] = 1e9 * _per_call(neighbors, calls)
    net = inputs["30x15"][0].copy()
    empties = [(i, k) for i, k in _dyads(net, 4000, np.random.default_rng(1)) if k not in net.neighbors(i)]

    def toggles(calls):
        toggle = net.toggle
        for _ in range(calls // len(empties)):
            for i, k in empties:
                toggle(i, k)
                toggle(i, k)

    metrics["graph.toggle_ns"] = 1e9 * _per_call(toggles, len(empties) * 25)
    return metrics


def terms_metrics(inputs: dict) -> dict[str, float]:
    metrics = {}
    for label in ("30x15", "400x200"):
        net, attrs = inputs[label]
        dyads = _dyads(net, 2000, np.random.default_rng(2))
        for kind, term, _ in KINDS:
            model = terms.bind(_spec(term), net, attrs)
            out = np.zeros(model.p)

            def deltas(calls, model=model, out=out):
                delta_into = model.delta_into
                for i, k in dyads[:calls]:
                    delta_into(net, i, k, out)

            metrics[f"terms.delta_us.{label}.{kind}"] = 1e6 * _per_call(deltas, len(dyads))
        for which in ("alpha", "beta"):
            term = terms.ModelTerm(kind="b1nodematch", attribute="group", **{which: 0.5})
            model = terms.bind(_spec(term), net, attrs)

            def full_stats(calls, model=model):
                for _ in range(calls):
                    model.stats(net)

            calls = 50 if label == "30x15" else 3
            metrics[f"terms.stats_us.{label}.{which}"] = 1e6 * _per_call(full_stats, calls)
    net, attrs = inputs["30x15"]

    def spectra(calls):
        for _ in range(calls):
            terms.mdsp_spectrum(net, attrs, "group")
            terms.mesp_spectrum(net, attrs, "group")

    metrics["terms.spectrum_us"] = 1e6 * _per_call(spectra, 50)
    return metrics


def sampler_metrics(inputs: dict, steps: int = 10_000) -> dict[str, float]:
    """MH proposals per second on the 30x15 network, one model per term kind."""
    metrics = {}
    net0, attrs = inputs["30x15"]
    for kind, term, coef in KINDS:
        model = terms.bind(_spec(term), net0, attrs)
        theta = [-1.25] + [coef] * (model.p - 1)
        rates = []
        for seed in range(3):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([3, seed])))
            chain = Chain(net0.copy(), model, theta, rng)
            start = time.perf_counter()
            chain.run(steps)
            rates.append(steps / (time.perf_counter() - start))
        metrics[f"sampler.steps_per_s.{kind}"] = statistics.median(rates)
    return metrics


def run_probe_fit(work: Path) -> int:
    """One small `bipergm fit` on the frozen 30x15 network; returns the exit code."""
    return cli.main(
        [
            "fit",
            "--network", str(DATA / "profile_30x15.edges"),
            "--attrs1", str(DATA / "profile_30x15_attrs1.tsv"),
            "--model", 'edges + b1nodematch("group", alpha = 0.5)',
            "--method", "mcmcmle",
            "--out", str(work / "probe_fit"),
        ]
        + PROBE_FIT
    )


def layer_metrics() -> dict[str, float]:
    inputs = probe_inputs()
    metrics = graph_metrics(inputs)
    metrics.update(terms_metrics(inputs))
    metrics.update(sampler_metrics(inputs))
    return metrics
