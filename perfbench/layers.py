"""Which program boundaries the traced run wraps, and the per-layer metrics
computed from the spans it records.

`estimate` looks these names up in its own module globals, so wrapping
them there traces exactly the calls a fit makes: the pseudo-likelihood
start (`mple`), every chain (`simulate`: anchor draws when called by
`mcmcmle`, bridge draws when called by `_bridge_loglik`), and every hull
test.  `_bridge_loglik` is the one private boundary; without it anchor and
bridge draws could not be told apart.
"""

from __future__ import annotations

import math

from bipergm import cli, estimate, io
from bipergm.estimate import _effective_sample_size

from .tracing import Tracer, self_times

FIT = "estimate.mcmcmle"
SIMULATE = "sampler.simulate"
BRIDGE = "estimate._bridge_loglik"
HULL = "oracle.hull_direction"
MPLE = "estimate.mple"
CLI = "cli.main"
LOADS = ("io.load_network", "io.load_attributes")
CHAIN = "chain.draws"


def _note_fit(fit, args, kwargs):
    homophily = [
        s for name, s in zip(fit.names, fit.diagnostics.get("mc_sd", [])) if "nodematch" in name
    ]
    return {
        "loglik_sd": fit.loglik_sd,
        "coef_mc_sd": sum(homophily) / len(homophily) if homophily else math.nan,
    }


def _note_sample(sample, args, kwargs):
    return {
        "proposals": sample.proposals,
        "accepted": round(sample.acceptance_rate * sample.proposals),
        "stats": sample.stats,
    }


def _note_hull(direction, args, kwargs):
    return {"outside": direction is not None}


def install(tracer: Tracer) -> None:
    tracer.wrap(cli, "main", CLI)
    tracer.wrap(io, "load_network", LOADS[0])
    tracer.wrap(io, "load_attributes", LOADS[1])
    tracer.wrap(estimate, "mcmcmle", FIT, _note_fit)
    tracer.wrap(estimate, "mple", MPLE)
    tracer.wrap(estimate, "simulate", SIMULATE, _note_sample)
    tracer.wrap(estimate, "hull_direction", HULL, _note_hull)
    tracer.wrap(estimate, "_bridge_loglik", BRIDGE)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def fit_breakdown(spans) -> list[dict]:
    """Per fit: wall seconds and the seconds of each child layer plus self time."""
    selfs = self_times(spans)
    rows = []
    for fit in (s for s in spans if s.name == FIT):
        parts = {"anchors": 0.0, "bridge": 0.0, "hull": 0.0, "mple": 0.0}
        key = {SIMULATE: "anchors", BRIDGE: "bridge", HULL: "hull", MPLE: "mple"}
        for child in (s for s in spans if s.parent == fit.id):
            parts[key[child.name]] += child.duration
        parts["self"] = selfs[fit.id]
        rows.append({"wall": fit.duration, **parts, "info": fit.info})
    return rows


def span_metrics(spans) -> dict[str, float]:
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    fits = [s for s in spans if s.name == FIT]
    anchors = [s for s in spans if s.name == SIMULATE and s.parent is not None and by_id[s.parent].name == FIT]
    chains = [s for s in spans if s.name in (SIMULATE, CHAIN)]
    anchor_s = sum(s.duration for s in anchors)
    bridge_s = total(BRIDGE)
    fit_s = total(FIT)
    proposals = sum(s.info["proposals"] for s in chains)
    min_ess = sum(
        min(_effective_sample_size(col) for col in s.info["stats"].T) for s in anchors
    )
    bridge_var = [
        f.info["loglik_sd"] ** 2 * sum(c.duration for c in spans if c.parent == f.id and c.name == BRIDGE)
        for f in fits
    ]
    return {
        "estimate.fit_s": fit_s,
        "estimate.anchor_s": anchor_s,
        "estimate.anchors": float(len(anchors)),
        "estimate.hull_failures": float(sum(1 for s in spans if s.name == HULL and s.info["outside"])),
        "estimate.mcmcmle_self_s": sum(selfs[s.id] for s in fits),
        "estimate.bridge_s": bridge_s,
        "estimate.bridge_share": bridge_s / fit_s,
        "estimate.bridge_var_s": _mean(bridge_var),
        "estimate.mple_ms": 1e3 * total(MPLE),
        "estimate.loglik_sd": _mean(f.info["loglik_sd"] for f in fits),
        "estimate.coef_mc_sd": _mean(f.info["coef_mc_sd"] for f in fits),
        "oracle.hull_ms": 1e3 * total(HULL),
        "io.load_ms": 1e3 * sum(total(name) for name in LOADS),
        "cli.self_ms": 1e3 * sum(selfs[s.id] for s in spans if s.name == CLI),
        "sampler.proposals": float(proposals),
        "sampler.acceptance": sum(s.info["accepted"] for s in chains) / proposals,
        "sampler.draws_per_s": proposals / sum(s.duration for s in chains),
        "sampler.ess_per_s": min_ess / anchor_s,
    }
