"""The benchmark's workloads.

Each workload writes its inputs from the seed (`prepare`, untimed), gets the
program ready to run them (`setup`, timed in fresh processes for
`setup_s`), lists one pass of fixed work as named op callables
(`pass_ops`; the runner times each call), and checks every op afterwards
(`verify`, untimed).  A failed check marks its op as failed.  See NOTES.md
for why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bipergm import cli, formula, io, terms
from bipergm.graph import AttributeTable, Attributes, from_edge_list
from bipergm.oracle import ExactModel
from bipergm.sampler import Chain

from . import reference

DATA = Path(__file__).resolve().parent / "data"
PROFILE_MODEL = 'edges + b1nodematch("group")'
MPLE_TOLERANCE = 1e-6  # criterion 6's MPLE tolerance
TV_BOUND = 0.01  # criterion 5's bound


@dataclass
class Op:
    name: str
    seconds: float
    scaled: float = math.nan  # seconds at the reference machine speed
    failure: str | None = None
    result: dict = field(default_factory=dict)


def _profile_failure(result: dict) -> str | None:
    if result["code"] != 0:
        return f"CLI exit code {result['code']}"
    text = (result["out"] / "profile.csv").read_text(encoding="utf-8")
    rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
    if len(rows) != 1:
        return f"{len(rows)} profile rows for a one-point grid"
    row = result["row"] = rows[0]
    if row["status"] != "ok":
        return f"row status {row['status']!r}"
    if not all(math.isfinite(float(row[key])) for key in ("coef", "coef_se", "loglik")):
        return f"non-finite value in row {row}"
    return None


class _ProfileCli:
    """Shared by the two workloads that run `bipergm profile` through the CLI:
    one op is one CLI call with a one-point grid, so each op is one fit."""

    method = ""
    extra_args: list[str] = []

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.calls = 0

    def setup(self):
        """Load and bind the inputs the way the CLI's first call does."""
        net = io.load_network(self.network)
        attrs = Attributes(mode1=io.load_attributes(self.attrs1, 1, net.n1, net.n2))
        which, value = self.points()[0]
        spec = formula.parse(PROFILE_MODEL).bind_exponent(which, value)
        return terms.bind(spec, net, attrs)

    def _call(self, which: str, value: float) -> dict:
        out = self.work / f"call{self.calls}"
        self.calls += 1
        argv = [
            "profile",
            "--network", str(self.network),
            "--attrs1", str(self.attrs1),
            "--model", PROFILE_MODEL,
            "--method", self.method,
            f"--{which}-grid", repr(value),
            "--out", str(out),
        ]
        return {"code": cli.main(argv + self.extra_args), "out": out}

    def pass_ops(self, tracer=None):
        return [
            (f"{which}={value:g}", lambda which=which, value=value: self._call(which, value))
            for which, value in self.points()
        ]

    def verify(self, ops: list[Op]) -> None:
        for op in ops:
            op.failure = _profile_failure(op.result)


class ProfileWorkload(_ProfileCli):
    """profile-30x15: the criterion-8 MCMC MLE profile at exponent 0.5."""

    name = "profile-30x15"
    method = "mcmcmle"
    # the criterion-8 control; the chain seed is part of it, so every run
    # repeats the same fits and timing differences come from the code alone
    extra_args = ["--burnin", "8192", "--interval", "48", "--samplesize", "3000", "--seed", "88"]
    network = DATA / "profile_30x15.edges"
    attrs1 = DATA / "profile_30x15_attrs1.tsv"

    def prepare(self) -> None:
        pass

    def seeds(self) -> dict:
        return {"mcmc": 88, "frozen_network": 2024}

    def points(self):
        return [("alpha", 0.5), ("beta", 0.5)]


def random_bipartite(seed: int, n1: int = 400, n2: int = 200, density: float = 0.025, levels: int = 3):
    """Bernoulli biadjacency matrix and mode-1 group codes from `seed`."""
    rng = np.random.default_rng(seed)
    B = (rng.random((n1, n2)) < density).astype(np.int64)
    groups = rng.integers(0, levels, size=n1)
    return B, groups


def write_inputs(B: np.ndarray, groups: np.ndarray, network: Path, attrs1: Path) -> None:
    n1, n2 = B.shape
    rows, cols = np.nonzero(B)
    lines = [f"n1 {n1} n2 {n2}"] + [f"{i + 1}\t{n1 + k + 1}" for i, k in zip(rows, cols)]
    network.write_text("\n".join(lines) + "\n", encoding="utf-8")
    lines = ["id\tgroup", "type\tcat"] + [f"{i + 1}\tg{g}" for i, g in enumerate(groups)]
    attrs1.write_text("\n".join(lines) + "\n", encoding="utf-8")


class MpleWorkload(_ProfileCli):
    """mple-400x200: the CLI's default alpha and beta grids fitted by MPLE."""

    name = "mple-400x200"
    method = "mple"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.network = work / "mple_400x200.edges"
        self.attrs1 = work / "mple_400x200_attrs1.tsv"

    def prepare(self) -> None:
        self.B, self.groups = random_bipartite(self.seed)
        write_inputs(self.B, self.groups, self.network, self.attrs1)

    def seeds(self) -> dict:
        return {"network": self.seed}

    def points(self):
        return [(which, value) for which in ("alpha", "beta") for value in cli.DEFAULT_GRID]

    def reference_coef(self, which: str, value: float) -> float:
        X, y = reference.nodematch_design(self.B, self.groups, which, value)
        return float(reference.logistic_mle(X, y)[1])

    def verify(self, ops: list[Op], reference_coef=None) -> None:
        super().verify(ops)
        reference_coef = reference_coef or self.reference_coef
        expected = {}
        for op in ops:
            if op.failure is not None:
                continue
            row = op.result["row"]
            key = (row["kind"], float(row["exponent"]))
            if key not in expected:
                expected[key] = reference_coef(*key)
            gap = abs(float(row["coef"]) - expected[key])
            if not gap <= MPLE_TOLERANCE:
                op.failure = f"coefficient off the reference by {gap:.3g} (> {MPLE_TOLERANCE:g})"


class ChainWorkload:
    """chain-2x2: criterion-5 chains, tallying the state after every proposal."""

    name = "chain-2x2"
    # the lowest- and highest-acceptance settings of criterion 5's homophily grid
    thetas = ([1.0, 1.0], [0.0, 0.0])
    burn_in = 5000
    draws = 1_000_000

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.chains = 0

    def prepare(self) -> None:
        pass

    def seeds(self) -> dict:
        return {"chains": f"SeedSequence([{self.seed}, chain index])"}

    def setup(self):
        table = AttributeTable(1, 2)
        table.add_categorical("group", ["a", "a"])
        self.attrs = Attributes(mode1=table)
        self.spec = terms.ModelSpec(
            (
                terms.ModelTerm(kind="edges"),
                terms.ModelTerm(kind="b1nodematch", attribute="group", alpha=0.5),
            )
        )
        self.model = terms.bind(self.spec, from_edge_list(2, 2, []), self.attrs)
        return self.model

    def pass_ops(self, tracer=None):
        ops = []
        for theta in self.thetas:
            ops.append((f"theta={theta}", lambda theta=theta, index=self.chains: self._chain(theta, index, tracer)))
            self.chains += 1
        return ops

    def _chain(self, theta, index: int, tracer) -> dict:
        with contextlib.nullcontext() if tracer is None else tracer.span("chain.draws") as span:
            net = from_edge_list(2, 2, [])
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([self.seed, index])))
            chain = Chain(net, self.model, theta, rng)
            chain.run(self.burn_in)
            code = sum(1 << ((i - 1) * 2 + (k - 3)) for i, k in net.edges())
            counts = [0] * 16
            step = chain.step
            for _ in range(self.draws):
                if step():
                    i, k = chain.last_dyad
                    code ^= 1 << ((i - 1) * 2 + (k - 3))
                counts[code] += 1
        if span is not None:
            span.info.update(proposals=chain.proposals, accepted=chain.accepted)
        return {"theta": theta, "counts": counts, "chain": chain}

    def verify(self, ops: list[Op]) -> None:
        exact_model = ExactModel(self.spec, self.attrs, 2, 2)
        for op in ops:
            try:
                op.result["chain"].audit()
            except RuntimeError as exc:
                op.failure = f"chain audit: {exc}"
                continue
            exact = exact_model.probabilities(op.result["theta"])
            tv = reference.total_variation(op.result["counts"], exact)
            op.name += f" tv {tv:.4f}"
            if not tv <= TV_BOUND:
                op.failure = f"TV {tv:.4f} > {TV_BOUND}"


WORKLOADS = {w.name: w for w in (ProfileWorkload, MpleWorkload, ChainWorkload)}
