"""Metropolis-Hastings simulation of the network distribution.

Every chain proposes with tie-no-tie (TNT): an even coin between a
uniformly random existing edge and a uniformly random empty dyad, with
the exact Hastings correction, including the degenerate empty- and
full-graph cases where one branch has nothing to pick.

Randomness comes from numpy's counter-based Philox generator; a chain is
fully determined by its seed.  A chain takes its uniforms from a block of
`rng.random(UNIFORM_BLOCK).tolist()`, drawn only when a uniform is needed
and the last block is spent, and uses them per proposal in this order:

1. the coin, only when 0 < E < D edges (below 0.5 removes);
2. the dyad: either the index of the edge to remove, or up to 64 tries
   at a uniform dyad until one is empty, then, if all 64 hit edges, one
   index into the enumerated empty dyads;
3. the accept uniform, only when the log acceptance ratio is negative.

Changing that order changes every seeded chain, `simulate` sample and fit;
`tests/test_sampler.py` pins it with fingerprints of seeded chains.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graph import BipartiteNetwork
from .terms import BoundModel

RNG_ALGORITHM = "numpy Philox4x64-10"
# uniforms per `rng.random` call of a chain
UNIFORM_BLOCK = 16384

LOG_HALF = math.log(0.5)

_DEAD_CHAIN = "the chain stopped when an earlier run or step raised; build a new Chain"


@dataclass(frozen=True)
class SamplerControl:
    """Chain hyperparameters.

    burn_in=None resolves to 2**14 proposals per started thousand dyads.
    `seed` is an int or a numpy `SeedSequence`; `mcmcmle` takes an int and
    runs each chain on a copy of the control seeded by a spawned sequence.
    """

    burn_in: int | None = None
    interval: int = 1024
    sample_size: int = 1000
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        # a float would fail deep inside the chain, and True would run as 1
        for name, least in (("burn_in", 0), ("interval", 1), ("sample_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if value is None and name == "burn_in":
                continue
            if name == "seed" and isinstance(value, np.random.SeedSequence):
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an int, got {type(value).__name__}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")

    def resolved_burn_in(self, dyad_count: int) -> int:
        if self.burn_in is not None:
            return self.burn_in
        return 2**14 * max(1, -(-dyad_count // 1000))


@dataclass
class StatSample:
    """Retained statistic draws from one chain, columns in `model.names` order."""

    stats: np.ndarray  # (sample_size, p)
    final_network: BipartiteNetwork
    acceptance_rate: float
    proposals: int


def _generator(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


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
    verifies agreement.  Theta is fixed when the chain is built.  Each
    `run` or `step` updates `accepted`, `proposals` and `last_dyad`, the
    dyad of the last proposal (None before the first).

    Once the chain is built the network must change only through the
    chain, or the running statistics go stale; `audit()` also checks the
    network's own bookkeeping, its edge index and its neighbour masks, and
    raises on any part that went stale.

    A chain whose `run` or `step` raised is dead: the exception may have
    left the network and the statistics out of step, so every later `run`
    or `step` raises `RuntimeError`.
    """

    def __init__(self, net: BipartiteNetwork, model: BoundModel, theta, rng: np.random.Generator):
        if len(theta) != model.p:
            raise ValueError(f"theta has {len(theta)} entries for {model.p} statistics")
        theta = [float(t) for t in theta]
        if not all(map(math.isfinite, theta)):
            # a NaN log ratio would accept every proposal
            raise ValueError(f"theta must be finite, got {theta}")
        net.check_has_dyads()
        self.net = net
        self.model = model
        self.stats = [float(s) for s in model.stats(net)]
        uniform = itertools.chain.from_iterable(
            iter(lambda: rng.random(UNIFORM_BLOCK).tolist(), None)
        ).__next__
        loop = _mh_loop(net, theta, self.stats, [ev.delta_into for ev in model.evaluators], uniform)
        self.accepted, self.proposals, self.last_dyad = next(loop)
        self._send = loop.send

    def step(self) -> bool:
        """One proposal; returns True if the toggle was accepted."""
        before = self.accepted
        try:
            self.accepted, self.proposals, self.last_dyad = self._send(1)
        except StopIteration:
            raise RuntimeError(_DEAD_CHAIN) from None
        return self.accepted != before

    def run(self, proposals: int) -> None:
        """Make `proposals` MH proposals."""
        try:
            self.accepted, self.proposals, self.last_dyad = self._send(proposals)
        except StopIteration:
            raise RuntimeError(_DEAD_CHAIN) from None

    def audit(self) -> None:
        """Check the network's bookkeeping (`check_consistency`), which the
        recount reads, then recompute statistics and check the running vector
        agrees to within 1e-8 + 2**-52 * accepted * M, M being the largest
        |statistic| in the recount or the running vector: the float error of
        a sum that adds one change vector per accepted toggle."""
        try:
            self.net.check_consistency()
        except AssertionError as exc:
            raise RuntimeError(f"network bookkeeping drifted: {exc}") from None
        fresh = self.model.stats(self.net)
        running = np.asarray(self.stats)
        drift = float(np.max(np.abs(fresh - running), initial=0.0))
        scale = float(np.max(np.abs([fresh, running]), initial=0.0))
        tol = 1e-8 + 2.0**-52 * self.accepted * scale
        if drift > tol:
            raise RuntimeError(f"incremental statistics drifted by {drift:g} (tol {tol:g})")
        # in place: the loop holds this list
        self.stats[:] = [float(s) for s in fresh]


def _mh_loop(net, theta, stats, deltas, uniform):
    """The only MH loop body: a generator that holds a chain's locals
    between calls.  Each value sent is a number of proposals to make,
    reading `uniform()` in the order the module docstring gives; it yields
    the running `(accepted, proposals, last_dyad)`.  It holds no reference
    to its chain, so a dropped chain is freed at once."""
    exp = math.exp
    mask, bit, edge_list, add, remove = net.mask, net._bit, net._edge_list, net._add, net._remove
    n1, n2 = net.n1, net.n2
    D, first2 = n1 * n2, n1 + 1
    q_add, q_remove = {}, {}  # TNT log proposal ratios by edge count, filled on first use
    buf, zeros = [0.0] * len(theta), [0.0] * len(theta)
    idx = range(len(theta))
    accepted = proposals = 0
    last = None
    while True:
        n = yield accepted, proposals, last
        for _ in range(n):
            E = len(edge_list)
            if 0 < E < D:
                adding = uniform() >= 0.5
            else:
                adding = E == 0
            if adding:
                for _ in range(64):
                    d = int(uniform() * D)
                    i = d // n2 + 1
                    k = first2 + d % n2
                    if not mask[i] & bit[k]:
                        break
                else:
                    # dense fallback: enumerate the complement once
                    empties = [
                        (a, b)
                        for a in range(1, n1 + 1)
                        for b in range(first2, n1 + n2 + 1)
                        if not mask[a] & bit[b]
                    ]
                    i, k = empties[int(uniform() * len(empties))]
                try:
                    log_q = q_add[E]
                except KeyError:
                    log_q = q_add[E] = _tnt_log_q(D, E, True)
            else:
                i, k = edge_list[int(uniform() * E)]
                try:
                    log_q = q_remove[E]
                except KeyError:
                    log_q = q_remove[E] = _tnt_log_q(D, E, False)

            # terms that skip a slot leave it zero
            buf[:] = zeros
            for delta_into in deltas:
                delta_into(net, i, k, buf)
            lo = 0.0
            for j in idx:
                lo += theta[j] * buf[j]
            log_ratio = (lo if adding else -lo) + log_q

            if log_ratio < 0.0 and uniform() >= exp(log_ratio):
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

        proposals += n
        if n > 0:
            last = i, k


def simulate(
    model: BoundModel,
    theta,
    net0: BipartiteNetwork,
    control: SamplerControl,
) -> StatSample:
    """Burn in, then retain `sample_size` statistic vectors every `interval`
    proposals, on a chain seeded by `control.seed`.  `net0` is copied,
    never mutated."""
    net = net0.copy()
    chain = Chain(net, model, theta, _generator(control.seed))
    chain.run(control.resolved_burn_in(net.dyad_count))
    rows = np.empty((control.sample_size, model.p))
    for s in range(control.sample_size):
        chain.run(control.interval)
        rows[s] = chain.stats
    chain.audit()
    rate = chain.accepted / chain.proposals if chain.proposals else 0.0
    return StatSample(
        stats=rows,
        final_network=net,
        acceptance_rate=rate,
        proposals=chain.proposals,
    )
