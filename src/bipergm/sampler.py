"""Metropolis-Hastings simulation of the network distribution.

Proposals are either uniform over dyads or tie-no-tie (an even coin
between a uniformly random existing edge and a uniformly random empty
dyad), with the exact Hastings correction, including the degenerate
empty- and full-graph cases where one branch has nothing to pick.

Randomness comes from numpy's counter-based Philox generator; a chain is
fully determined by its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Attributes, BipartiteNetwork
from .terms import BoundModel, ModelSpec, bind

RNG_ALGORITHM = "numpy Philox4x64-10"

LOG_HALF = math.log(0.5)


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
        if self.proposal not in ("tnt", "uniform"):
            raise ValueError(f"proposal must be 'tnt' or 'uniform', got {self.proposal!r}")

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


class _UniformStream:
    """Batched uniforms off a Generator; cheap scalar access."""

    __slots__ = ("_rng", "_block", "_buf", "_idx")

    def __init__(self, rng: np.random.Generator, block: int = 16384):
        self._rng = rng
        self._block = block
        self._buf: list[float] = []
        self._idx = 0

    def take(self) -> float:
        if self._idx == len(self._buf):
            self._buf = self._rng.random(self._block).tolist()
            self._idx = 0
        value = self._buf[self._idx]
        self._idx += 1
        return value


class Chain:
    """One MH chain over a live network.

    The chain mutates `net` in place and keeps the statistic vector
    incrementally up to date; `audit()` recomputes from scratch and
    verifies agreement.
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
        self.net = net
        self.model = model
        self.theta = [float(t) for t in theta]
        self.proposal = proposal
        self._u = _UniformStream(rng, uniform_block)
        self.stats = [float(s) for s in model.stats(net)]
        self._buf = [0.0] * model.p
        self._evs = model.evaluators
        self.accepted = 0
        self.proposals = 0
        self.last_dyad: tuple[int, int] | None = None

    def _pick_empty_dyad(self, n1: int, n2: int, D: int) -> tuple[int, int]:
        adj = self.net.adj
        take = self._u.take
        for _ in range(64):
            d = int(take() * D)
            i = d // n2 + 1
            k = n1 + 1 + d % n2
            if k not in adj[i]:
                return i, k
        # dense fallback: enumerate the complement once
        empties = [
            (i, k)
            for i in range(1, n1 + 1)
            for k in range(n1 + 1, n1 + n2 + 1)
            if k not in adj[i]
        ]
        return empties[int(take() * len(empties))]

    def step(self) -> bool:
        """One proposal; returns True if the toggle was accepted."""
        net = self.net
        n1, n2 = net.n1, net.n2
        D = n1 * n2
        take = self._u.take
        self.proposals += 1

        if self.proposal == "uniform":
            d = int(take() * D)
            i = d // n2 + 1
            k = n1 + 1 + d % n2
            adding = k not in net.adj[i]
            log_q = 0.0
        else:
            E = net.edge_count
            N0 = D - E
            if E == 0:
                i, k = self._pick_empty_dyad(n1, n2, D)
                adding = True
                log_q_fwd = -math.log(D)
                log_q_rev = LOG_HALF if D > 1 else -math.log(D)
            elif N0 == 0:
                i, k = net.edge_at(int(take() * E))
                adding = False
                log_q_fwd = -math.log(D)
                log_q_rev = LOG_HALF if D > 1 else -math.log(D)
            elif take() < 0.5:
                i, k = net.edge_at(int(take() * E))
                adding = False
                log_q_fwd = LOG_HALF - math.log(E)
                log_q_rev = -math.log(D) if E == 1 else LOG_HALF - math.log(N0 + 1)
            else:
                i, k = self._pick_empty_dyad(n1, n2, D)
                adding = True
                log_q_fwd = LOG_HALF - math.log(N0)
                log_q_rev = -math.log(D) if N0 == 1 else LOG_HALF - math.log(E + 1)
            log_q = log_q_rev - log_q_fwd

        self.last_dyad = (i, k)
        buf = self._buf
        for j in range(len(buf)):
            buf[j] = 0.0
        for ev in self._evs:
            ev.delta_into(net, i, k, buf)
        theta = self.theta
        lo = 0.0
        for j in range(len(buf)):
            lo += theta[j] * buf[j]
        log_ratio = (lo if adding else -lo) + log_q

        if log_ratio < 0.0 and take() >= math.exp(log_ratio):
            return False
        (net._add if adding else net._remove)(i, k)
        stats = self.stats
        if adding:
            for j in range(len(buf)):
                stats[j] += buf[j]
        else:
            for j in range(len(buf)):
                stats[j] -= buf[j]
        self.accepted += 1
        return True

    def run(self, proposals: int) -> None:
        step = self.step
        for _ in range(proposals):
            step()

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
