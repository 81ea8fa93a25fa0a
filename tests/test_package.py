import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import bipergm
from bipergm import cli, estimate, formula, graph, io, oracle, sampler, terms

# wrappers and settings with no caller that were removed; each capability
# keeps one way in (`FitControl(sampler=s)` is now `s`, see docs/decisions.md)
RETIRED = {
    "mh_step",
    "toggle_edge",
    "exact_kappa",
    "two_paths_between",
    "matching_edges_at",
    "FitControl",
    "eval_stats",
    "change_stats",
    "stat_names",
    "cond_log_odds",
    "shared_partners",
}


# parameters that were a second way in: a chain takes its bound model and
# its seed from `simulate(model, theta, net0, control)`, a fit states its
# own formula, and every chain proposes with TNT (see docs/decisions.md)
RETIRED_PARAMETERS = {
    "simulate": {"seed", "spec", "attrs"},
    "mple": {"formula"},
    "mcmcmle": {"formula"},
    "Chain": {"proposal"},
    "SamplerControl": {"proposal"},
}


def test_public_surface():
    names = bipergm.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(bipergm, name), name
    assert not RETIRED & set(names)
    # a name dropped from `__all__` but left in its module is not retired
    for module in (bipergm, graph, terms, formula, sampler, estimate, oracle, io, cli):
        assert not [name for name in RETIRED if hasattr(module, name)], module.__name__
    # a chain reads the node-level change statistics from `BoundModel.node`
    assert not hasattr(terms.BoundModel, "node_tables")
    # a node's degree is the popcount of its neighbour mask, `net.mask[v].bit_count()`
    assert not hasattr(graph.BipartiteNetwork, "degree")
    for name, retired in RETIRED_PARAMETERS.items():
        assert not retired & set(inspect.signature(getattr(bipergm, name)).parameters), name
    # `model` is the bound model every chain runs on, never an optional override
    simulate = inspect.signature(bipergm.simulate).parameters.values()
    assert [p.name for p in simulate] == ["model", "theta", "net0", "control"]
    assert all(p.default is inspect.Parameter.empty for p in simulate)
    chain = inspect.signature(bipergm.Chain).parameters
    assert list(chain) == ["net", "model", "theta", "rng"]
    control = [f.name for f in dataclasses.fields(bipergm.SamplerControl)]
    assert control == ["burn_in", "interval", "sample_size", "seed"]


# run in a fresh interpreter: the test session itself has imported scipy.optimize
IMPORT_SURFACE = """
import sys
import bipergm, bipergm.cli
assert "scipy.optimize" not in sys.modules
net = bipergm.from_edge_list(2, 3, [(1, 3), (1, 4), (2, 5)])
fit = bipergm.mple(bipergm.parse("edges"), net, bipergm.Attributes())
assert "scipy.optimize" in sys.modules
print(fit.theta[0])
"""


def test_the_lp_solver_loads_at_the_first_hull_check():
    src = Path(bipergm.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_SURFACE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    # 3 edges on 6 dyads: the edges-only MPLE is logit(1/2)
    assert abs(float(done.stdout)) < 1e-8
