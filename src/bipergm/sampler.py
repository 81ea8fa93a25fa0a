"""Metropolis-Hastings simulation of the network distribution.

Proposals are either uniform over dyads or tie-no-tie (an even coin
between a uniformly random existing edge and a uniformly random empty
dyad), with the exact Hastings correction, including the degenerate
empty- and full-graph cases where one branch has nothing to pick.

Randomness comes from numpy's counter-based Philox generator; a chain is
fully determined by its seed.  A chain takes its uniforms from a block of
`rng.random(block).tolist()`, drawn only when a uniform is needed and the
last block is spent, and uses them per proposal in this order:

1. TNT only: the coin, only when 0 < E < D edges (below 0.5 removes);
2. the dyad: under TNT either the index of the edge to remove, or up to
   64 tries at a uniform dyad until one is empty, then, if all 64 hit
   edges, one index into the enumerated empty dyads; under the uniform
   proposal one dyad index;
3. the accept uniform, only when the log acceptance ratio is negative.

Changing that order changes every seeded chain, `simulate` sample and fit;
`tests/test_sampler.py` pins it with fingerprints of seeded chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Attributes, BipartiteNetwork
from .terms import BoundModel, ModelSpec, bind

RNG_ALGORITHM = "numpy Philox4x64-10"

LOG_HALF = math.log(0.5)


def _check_proposal(proposal: str) -> None:
    if proposal not in ("tnt", "uniform"):
        raise ValueError(f"proposal must be 'tnt' or 'uniform', got {proposal!r}")


@dataclass(frozen=True)
class SamplerControl:
    """Chain hyperparameters.

    burn_in=None resolves to 2**14 proposals per started thousand dyads.
    """

    burn_in: int | None = None
    interval: int = 1024
    sample_size: int = 1000
    seed: int = 0
    proposal: str = "tnt"  # "tnt" or "uniform"

    def __post_init__(self):
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.interval <= 0 or self.sample_size <= 0:
            raise ValueError("interval and sample_size must be positive")
        _check_proposal(self.proposal)

    def resolved_burn_in(self, dyad_count: int) -> int:
        if self.burn_in is not None:
            return self.burn_in
        return 2**14 * max(1, -(-dyad_count // 1000))


@dataclass
class StatSample:
    """Retained statistic draws from one chain."""

    names: list[str]
    stats: np.ndarray  # (sample_size, p)
    final_network: BipartiteNetwork
    acceptance_rate: float
    proposals: int
    control: SamplerControl
    rng_algorithm: str = RNG_ALGORITHM


def _generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _tnt_log_pick(D: int, E: int, adding: bool) -> float:
    """Log probability that TNT at E of D edges proposes one given toggle:
    with no coin when the network is empty or full."""
    if E == 0 or E == D:
        return -math.log(D)
    return LOG_HALF - math.log(D - E if adding else E)


def _tnt_log_q(D: int, E: int, adding: bool) -> float:
    """TNT log proposal ratio log q(rev) - log q(fwd) for a toggle at E edges."""
    return _tnt_log_pick(D, E + 1 if adding else E - 1, not adding) - _tnt_log_pick(D, E, adding)


class Chain:
    """One MH chain over a live network.

    The chain mutates `net` in place and keeps the statistic vector
    incrementally up to date; `audit()` recomputes from scratch and
    verifies agreement.  `theta` and `proposal` are fixed when the chain
    is built.
    """

    def __init__(
        self,
        net: BipartiteNetwork,
        model: BoundModel,
        theta,
        rng: np.random.Generator,
        proposal: str = "tnt",
        uniform_block: int = 16384,
    ):
        if len(theta) != model.p:
            raise ValueError(f"theta has {len(theta)} entries for {model.p} statistics")
        _check_proposal(proposal)
        net.check_has_dyads()
        self.net = net
        self.model = model
        self.theta = [float(t) for t in theta]
        self.proposal = proposal
        self.stats = [float(s) for s in model.stats(net)]
        self.accepted = 0
        self.proposals = 0
        self.last_dyad: tuple[int, int] | None = None
        # the uniform block and the index of its next unused entry
        self._u: list[float] = []
        self._ui = 0
        n1, n2, p = net.n1, net.n2, model.p
        # what `run` binds to locals, in one tuple so that `step` unpacks once
        self._loop = (
            net, net.adj, net._edge_list, net._add, net._remove,
            n1, n2, n1 * n2, n1 + 1, proposal == "tnt",
            {}, {},  # TNT log proposal ratios by edge count, filled on first use
            [ev.delta_into for ev in model.evaluators],
            self.theta, [0.0] * p, [0.0] * p, range(p),
            rng.random, uniform_block, math.exp,
        )

    def step(self) -> bool:
        """One proposal; returns True if the toggle was accepted."""
        accepted = self.accepted
        self.run(1)
        return self.accepted != accepted

    def run(self, proposals: int) -> None:
        """Make `proposals` MH proposals, drawing uniforms in the order the
        module docstring gives.  This is the only loop body; `step` runs it
        for one proposal."""
        (net, adj, edge_list, add, remove, n1, n2, D, first2, tnt, q_add, q_remove,
         deltas, theta, buf, zeros, idx, draw, block, exp) = self._loop
        stats = self.stats
        u, ui = self._u, self._ui
        nu = len(u)
        accepted = 0
        i = k = 0
        for _ in range(proposals):
            if tnt:
                E = len(edge_list)
                if 0 < E < D:
                    if ui == nu:
                        u, ui, nu = draw(block).tolist(), 0, block
                    adding = u[ui] >= 0.5
                    ui += 1
                else:
                    adding = E == 0
                if adding:
                    for _ in range(64):
                        if ui == nu:
                            u, ui, nu = draw(block).tolist(), 0, block
                        d = int(u[ui] * D)
                        ui += 1
                        i = d // n2 + 1
                        k = first2 + d % n2
                        if k not in adj[i]:
                            break
                    else:
                        # dense fallback: enumerate the complement once
                        empties = [
                            (a, b)
                            for a in range(1, n1 + 1)
                            for b in range(first2, n1 + n2 + 1)
                            if b not in adj[a]
                        ]
                        if ui == nu:
                            u, ui, nu = draw(block).tolist(), 0, block
                        i, k = empties[int(u[ui] * len(empties))]
                        ui += 1
                    try:
                        log_q = q_add[E]
                    except KeyError:
                        log_q = q_add[E] = _tnt_log_q(D, E, True)
                else:
                    if ui == nu:
                        u, ui, nu = draw(block).tolist(), 0, block
                    i, k = edge_list[int(u[ui] * E)]
                    ui += 1
                    try:
                        log_q = q_remove[E]
                    except KeyError:
                        log_q = q_remove[E] = _tnt_log_q(D, E, False)
            else:
                if ui == nu:
                    u, ui, nu = draw(block).tolist(), 0, block
                d = int(u[ui] * D)
                ui += 1
                i = d // n2 + 1
                k = first2 + d % n2
                adding = k not in adj[i]
                log_q = 0.0

            # terms that skip a slot leave it zero
            buf[:] = zeros
            for delta_into in deltas:
                delta_into(net, i, k, buf)
            lo = 0.0
            for j in idx:
                lo += theta[j] * buf[j]
            log_ratio = (lo if adding else -lo) + log_q

            if log_ratio < 0.0:
                if ui == nu:
                    u, ui, nu = draw(block).tolist(), 0, block
                reject = u[ui] >= exp(log_ratio)
                ui += 1
                if reject:
                    continue
            if adding:
                add(i, k)
                for j in idx:
                    stats[j] += buf[j]
            else:
                remove(i, k)
                for j in idx:
                    stats[j] -= buf[j]
            accepted += 1

        self._u, self._ui = u, ui
        self.accepted += accepted
        self.proposals += proposals
        if proposals > 0:
            self.last_dyad = (i, k)

    def audit(self) -> None:
        """Recompute statistics from scratch and check the running vector
        agrees to within 1e-8."""
        fresh = self.model.stats(self.net)
        drift = float(np.max(np.abs(fresh - np.asarray(self.stats)))) if self.model.p else 0.0
        if drift > 1e-8:
            raise RuntimeError(f"incremental statistics drifted by {drift:g} (tol 1e-08)")
        self.stats = [float(s) for s in fresh]


def cond_log_odds(
    spec: ModelSpec,
    net: BipartiteNetwork,
    attrs: Attributes,
    theta,
    i: int,
    k: int,
) -> float:
    """Conditional log-odds that dyad (i, k) is an edge, given the rest."""
    model = bind(spec, net, attrs)
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (model.p,):
        raise ValueError(f"theta has shape {theta.shape}, model dimension is {model.p}")
    return float(theta @ model.delta(net, i, k))


def mh_step(
    net: BipartiteNetwork,
    spec: ModelSpec | BoundModel,
    attrs: Attributes,
    theta,
    rng: np.random.Generator,
    proposal: str = "tnt",
) -> bool:
    """Single Metropolis-Hastings proposal on `net`, toggled in place on accept.

    For long runs construct a `Chain` once instead; this convenience
    wrapper rebuilds per-step state.
    """
    model = spec if isinstance(spec, BoundModel) else bind(spec, net, attrs)
    chain = Chain(net, model, theta, rng, proposal=proposal, uniform_block=4)
    return chain.step()


def simulate(
    spec: ModelSpec,
    attrs: Attributes,
    theta,
    net0: BipartiteNetwork,
    control: SamplerControl,
    seed=None,
    model: BoundModel | None = None,
) -> StatSample:
    """Burn in, then retain `sample_size` statistic vectors every `interval`
    proposals.  `net0` is copied, never mutated.  `seed` (int or numpy
    SeedSequence) overrides `control.seed`."""
    if model is None:
        model = bind(spec, net0, attrs)
    net = net0.copy()
    rng = _generator(control.seed if seed is None else seed)
    chain = Chain(net, model, theta, rng, proposal=control.proposal)
    chain.run(control.resolved_burn_in(net.dyad_count))
    rows = np.empty((control.sample_size, model.p))
    for s in range(control.sample_size):
        chain.run(control.interval)
        rows[s] = chain.stats
    chain.audit()
    rate = chain.accepted / chain.proposals if chain.proposals else 0.0
    return StatSample(
        names=list(model.names),
        stats=rows,
        final_network=net,
        acceptance_rate=rate,
        proposals=chain.proposals,
        control=control,
    )
