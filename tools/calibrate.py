"""Calibration of the Monte-Carlo error bars that `mcmcmle` reports.

Run from anywhere, with no options (every seed is fixed):

    python3 tools/calibrate.py

It imports the program from this checkout's `src/` and writes
`calibration.json` in the current directory:

- `fixed_theta`: at 30x15 (the frozen `perfbench/data` network, the
  criterion-8 control), theta held at the seed-88 one-point profile fit at
  alpha=0.5 and at beta=0.5, bridges at seeds 200 to 223;
- `fits`: 16 fits at seeds 300 to 315 per exponent;
- `exact_z`: on the 3x3 criterion-7 network at the exact MLE, with the
  criterion-7 control, z = (loglik - exact) / loglik_sd over bridge
  seeds 300 to 399;
- `grids`: the criterion-8 profile over both default grids at seeds 88
  to 91: failed rows, floored rows (`ess_eff` at its floor of 1.0), the
  hull misses of each `ok` row that had any, the `ok` rows whose
  stopping weight ESS is below `estimate.WEIGHT_ESS_SHARE` of their
  draws, the largest log-likelihood jump between neighbouring `ok`
  points in units of the sd of that difference, and the alpha=1 minus
  beta=1 gap.

"Spread" is the standard deviation over seeds (ddof=1); "ratio" is the
spread of `loglik` over the median reported `loglik_sd`, 1 when the error
bar is honest.  A full run takes about 2 minutes on a 2-core VM.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bipergm import (  # noqa: E402
    AttributeTable,
    Attributes,
    ExactModel,
    SamplerControl,
    bind,
    exact_loglik,
    exact_mle,
    from_edge_list,
    mcmcmle,
    parse,
    profile,
)
from bipergm import estimate  # noqa: E402
from bipergm.io import load_attributes, load_network  # noqa: E402
from bipergm.sampler import Chain, _generator  # noqa: E402

TEMPLATE = parse('edges + b1nodematch("group")')
GRID = [g / 10.0 for g in range(11)]
CRITERION_7 = SamplerControl(burn_in=4096, interval=8, sample_size=100_000, seed=77)
CRITERION_8 = SamplerControl(burn_in=8192, interval=48, sample_size=3000, seed=88)
KINDS = ("alpha", "beta")


def frozen_30x15():
    data = ROOT / "perfbench" / "data"
    net = load_network(data / "profile_30x15.edges")
    attrs = Attributes(mode1=load_attributes(data / "profile_30x15_attrs1.tsv", 1, net.n1, net.n2))
    return net, attrs


def moderate_3x3():
    """The criterion-6 and -7 network: five edges, mode-1 groups a, a, b."""
    table = AttributeTable(1, 3)
    table.add_categorical("group", ["a", "a", "b"])
    return from_edge_list(3, 3, [(1, 4), (1, 5), (2, 4), (2, 6), (3, 6)]), Attributes(mode1=table)


def bridges(spec, net, attrs, theta, control, seeds) -> list[tuple[float, float]]:
    """(loglik, loglik_sd) of the bridge from `theta` at each seed, on a
    chain built at `theta` on the observed network and run for
    `control.burn_in` proposals first."""
    model = bind(spec, net, attrs)
    s_obs = model.stats(net)
    start, log_kappa = estimate._dyad_independent_start(model, net, attrs, s_obs)
    out = []
    for s in seeds:
        chain = Chain(net.copy(), model, theta, _generator(np.random.SeedSequence(s)))
        chain.run(control.resolved_burn_in(net.dyad_count))
        out.append(estimate._bridge_loglik(chain, theta, s_obs, control.interval, start, log_kappa))
    return out


def spread_ratio(pairs: list[tuple[float, float]]) -> dict:
    logliks = np.array([ll for ll, _ in pairs])
    spread = float(np.std(logliks, ddof=1))
    median_sd = float(np.median([sd for _, sd in pairs]))
    return {
        "n": len(pairs),
        "mean": float(logliks.mean()),
        "spread": spread,
        "median_sd": median_sd,
        "ratio": spread / median_sd,
    }


def fixed_theta(net, attrs, control, fit_seed, bridge_seeds) -> dict:
    """Per exponent kind: theta from the one-point profile at 0.5 with seed
    `fit_seed`, then one bridge per seed of `bridge_seeds`."""
    out = {}
    for which in KINDS:
        point = profile(TEMPLATE, which, [0.5], net, attrs, control=replace(control, seed=fit_seed))[0]
        spec = TEMPLATE.bind_exponent(which, 0.5)
        row = spread_ratio(bridges(spec, net, attrs, point.fit.theta, control, bridge_seeds))
        out[which] = {"theta": [float(t) for t in point.fit.theta], **row}
    return out


def fits(net, attrs, control, seeds) -> dict:
    """Per exponent kind at 0.5: one `mcmcmle` fit per seed."""
    out = {}
    for which in KINDS:
        spec = TEMPLATE.bind_exponent(which, 0.5)
        done = [mcmcmle(spec, net, attrs, control=replace(control, seed=s)) for s in seeds]
        out[which] = spread_ratio([(f.loglik, f.loglik_sd) for f in done])
    return out


def exact_z(net, attrs, control, bridge_seeds) -> dict:
    """Per exponent kind at 0.5: z of the bridge at the exact MLE."""
    out = {}
    for which in KINDS:
        spec = TEMPLATE.bind_exponent(which, 0.5)
        oracle = ExactModel(spec, attrs, net.n1, net.n2)
        theta = exact_mle(oracle, net)
        exact = exact_loglik(oracle, theta, net)
        pairs = bridges(spec, net, attrs, theta, control, bridge_seeds)
        z = np.array([(ll - exact) / sd for ll, sd in pairs])
        out[which] = {"n": int(z.size), "mean": float(z.mean()), "sd": float(z.std(ddof=1))}
    return out


def grids(net, attrs, control, seeds, grid=GRID) -> dict:
    """The profile over `grid` for both kinds at each seed: its failed and
    floored rows, the hull misses and low weight ESS of its `ok` rows, its
    largest jump between neighbouring `ok` points, and the gap between the
    alpha=1 and beta=1 rows where both are `ok`."""
    per_seed = []
    for seed in seeds:
        rows = {
            which: profile(TEMPLATE, which, grid, net, attrs, control=replace(control, seed=seed))
            for which in KINDS
        }
        points = [p for which in KINDS for p in rows[which]]
        ok = [(f"{p.kind}={p.value:g}", p.fit.diagnostics) for p in points if p.fit is not None]
        jumps = [
            (abs(a.fit.loglik - b.fit.loglik) / math.hypot(a.fit.loglik_sd, b.fit.loglik_sd),
             f"{a.kind}={a.value:g}..{b.value:g}")
            for which in KINDS
            for a, b in zip(rows[which], rows[which][1:])
            if a.fit is not None and b.fit is not None
        ]
        worst = max(jumps, default=(None, None))
        a1, b1 = (rows[which][-1].fit for which in KINDS)  # the linear end of each grid
        gap = None if a1 is None or b1 is None else a1.loglik - b1.loglik
        per_seed.append({
            "seed": seed,
            "failed": [f"{p.kind}={p.value:g}" for p in points if p.fit is None],
            "floored": [row for row, d in ok if d["ess_eff"] == 1.0],
            "hull_misses": {row: d["hull_failures"] for row, d in ok if d["hull_failures"]},
            "low_weight_ess": [row for row, d in ok
                               if d["weight_ess"] < estimate.WEIGHT_ESS_SHARE * d["sample_size"]],
            "max_jump_sd": worst[0],
            "max_jump_at": worst[1],
            "linear_end_gap": gap,
            "linear_end_gap_sd": None if gap is None else gap / math.hypot(a1.loglik_sd, b1.loglik_sd),
        })
    jumps = [s["max_jump_sd"] for s in per_seed if s["max_jump_sd"] is not None]
    return {
        "points": 2 * len(grid) * len(seeds),
        "failed": sum(len(s["failed"]) for s in per_seed),
        "floored": sum(len(s["floored"]) for s in per_seed),
        "hull_misses": sum(sum(s["hull_misses"].values()) for s in per_seed),
        "low_weight_ess": sum(len(s["low_weight_ess"]) for s in per_seed),
        "max_jump_sd": max(jumps, default=None),
        "per_seed": per_seed,
    }


def _timed(out: dict, key: str, fn, *args) -> None:
    start = time.perf_counter()
    out[key] = fn(*args)
    out[key]["seconds"] = round(time.perf_counter() - start, 1)


def main() -> dict:
    big, big_attrs = frozen_30x15()
    small, small_attrs = moderate_3x3()
    # outside a git checkout the sha reads null
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    out = {"git_sha": git.stdout.strip() or None}
    _timed(out, "fixed_theta", fixed_theta, big, big_attrs, CRITERION_8, 88, range(200, 224))
    _timed(out, "fits", fits, big, big_attrs, CRITERION_8, range(300, 316))
    _timed(out, "exact_z", exact_z, small, small_attrs, CRITERION_7, range(300, 400))
    _timed(out, "grids", grids, big, big_attrs, CRITERION_8, range(88, 92))
    Path("calibration.json").write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return out


if __name__ == "__main__":
    main()
