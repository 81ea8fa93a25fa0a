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
2. the dyad: either the index of the edge to remove, or one uniform
   dyad per try until a try lands on an empty one;
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
    spawns from it one seed per anchor's chain and one for the bridge's.
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


def _tnt_log_q(D: int, E: int) -> float:
    """TNT log proposal ratio log q(rev) - log q(fwd) for adding an edge at
    E edges; removing one at E + 1 edges has its negative."""
    return _tnt_log_pick(D, E + 1, False) - _tnt_log_pick(D, E, True)


class Chain:
    """One MH chain over a live network.

    The chain mutates `net` in place and keeps the statistic vector
    incrementally up to date; `audit()` recomputes from scratch and
    verifies agreement.  `set_theta` changes theta between calls.  Each
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
        self.model = model
        self._theta, self._eta = [], []
        self.set_theta(theta)
        net.check_has_dyads()
        self.net = net
        self.stats = [float(s) for s in model.stats(net)]
        uniform = itertools.chain.from_iterable(
            iter(lambda: rng.random(UNIFORM_BLOCK).tolist(), None)
        ).__next__
        loop = _mh_loop(net, self._theta, self._eta, self.stats, model.node, model.dependent_change(), uniform)
        self.accepted, self.proposals, self.last_dyad = next(loop)
        self._send = loop.send

    def set_theta(self, theta) -> None:
        """Run later proposals at `theta`; the network, the running statistics,
        the counters and the uniform stream carry on.  A theta of the wrong
        length, or not finite, raises ValueError and changes nothing."""
        if len(theta) != self.model.p:
            raise ValueError(f"theta has {len(theta)} entries for {self.model.p} statistics")
        theta = [float(t) for t in theta]
        if not all(map(math.isfinite, theta)):
            # a NaN log ratio would accept every proposal
            raise ValueError(f"theta must be finite, got {theta}")
        eta = []  # eta[v]: theta times the pairs of node[v], in model order
        for pairs in self.model.node:
            lo = 0.0
            for j, value in pairs:
                lo += theta[j] * value
            eta.append(lo)
        # in place: the loop holds both lists
        self._theta[:], self._eta[:] = theta, eta

    def step(self) -> bool:
        """One proposal; returns True if the toggle was accepted."""
        before = self.accepted
        try:
            self.accepted, self.proposals, self.last_dyad = self._send(1)
        except StopIteration:
            raise RuntimeError(_DEAD_CHAIN) from None
        return self.accepted != before

    def run(self, proposals: int) -> None:
        """Make `proposals` MH proposals, an int >= 0; any other count is
        refused before the chain moves, so the chain stays alive."""
        if (isinstance(proposals, bool) or not isinstance(proposals, (int, np.integer))
                or proposals < 0):
            raise ValueError(f"proposals must be an int >= 0, got {proposals!r}")
        try:
            self.accepted, self.proposals, self.last_dyad = self._send(int(proposals))
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

    def sample(self, size: int, interval: int) -> np.ndarray:
        """`size` statistic vectors, one after every `interval` proposals,
        then `audit()`."""
        rows = np.empty((size, self.model.p))
        for s in range(size):
            self.run(interval)
            rows[s] = self.stats
        self.audit()
        return rows


def _mh_loop(net, theta, eta, stats, node, change, uniform):
    """The only MH loop body: a generator that holds a chain's locals
    between calls.  Each value sent is a number of proposals to make,
    reading `uniform()` in the order the module docstring gives; it yields
    the running `(accepted, proposals, last_dyad)`.  It holds no reference
    to its chain, so a dropped chain is freed at once.

    The dyad-independent terms come from `node`, `BoundModel.node`, and
    the others from `change`, `BoundModel.dependent_change`: a toggle's
    log-odds is `eta[i] + eta[k]` plus theta times the value of each
    (statistic index, value) pair that `change(mask, i, k)` returns, and
    an accepted toggle moves the statistics by those pairs and by
    `node[i]` and `node[k]`.  `Chain.set_theta` rewrites `theta` and `eta`
    in place between calls."""
    exp = math.exp
    mask, bit, edge_list, add, remove = net.mask, net._bit, net._edge_list, net._add, net._remove
    n1, n2 = net.n1, net.n2
    D, first2 = n1 * n2, n1 + 1
    q = {}  # TNT log proposal ratio for adding at E edges, filled on first use
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
                # E < D, so some dyad is empty and the tries end
                while True:
                    d = int(uniform() * D)
                    i = d // n2 + 1
                    k = first2 + d % n2
                    if not mask[i] & bit[k]:
                        break
            else:
                i, k = edge_list[int(uniform() * E)]
                E -= 1  # removing at E undoes adding at E - 1
            try:
                log_q = q[E]
            except KeyError:
                log_q = q[E] = _tnt_log_q(D, E)

            pairs = change(mask, i, k)
            lo = eta[i] + eta[k]
            for j, value in pairs:
                lo += theta[j] * value
            log_ratio = lo + log_q if adding else -(lo + log_q)

            if log_ratio < 0.0 and uniform() >= exp(log_ratio):
                continue
            if adding:
                add(i, k)
                for j, value in pairs:
                    stats[j] += value
                for j, value in node[i]:
                    stats[j] += value
                for j, value in node[k]:
                    stats[j] += value
            else:
                remove(i, k)
                for j, value in pairs:
                    stats[j] -= value
                for j, value in node[i]:
                    stats[j] -= value
                for j, value in node[k]:
                    stats[j] -= value
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
    rows = chain.sample(control.sample_size, control.interval)
    rate = chain.accepted / chain.proposals if chain.proposals else 0.0
    return StatSample(stats=rows, final_network=net, acceptance_rate=rate, proposals=chain.proposals)
