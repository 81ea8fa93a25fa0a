"""Model terms: full network statistics and exact change statistics.

Every change statistic is the exact difference between the edge-present
and edge-absent worlds, so incremental updates in the sampler agree with a
full recomputation.  A nodematch statistic is its shared-partner spectrum
times the power table, summed as `recompose_from_spectrum` sums it.

The homophily terms support a node-centric exponent (per matching node
pair, the two-path count raised to alpha) and an edge-centric exponent
(per edge, the matching co-edge count raised to beta, summed and halved).
Both exponents live in [0, 1] and 0**0 evaluates to 0, so a matching pair
with no two-path, or an edge with no matching co-edge, contributes nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .graph import (AttributeLookupError, Attributes, AttributeTable, BipartiteNetwork,
                    CategoricalColumn, node_bits, partners)


class TermKind(NamedTuple):
    """How a formula spells a term kind and what its call takes: nothing
    (None), the one integer it accepts, or ATTRIBUTE, a quoted attribute
    name.  Nodematch kinds also take alpha, beta, diff and keep."""

    spelling: str
    takes: int | str | None = None
    nodematch: bool = False


ATTRIBUTE = "attribute"

# every term kind the package knows; the formula parser, the formatter and
# ModelTerm's checks all read this table
KINDS = {
    "edges": TermKind("edges"),
    "b1cov": TermKind("b1cov", ATTRIBUTE),
    "b2cov": TermKind("b2cov", ATTRIBUTE),
    "b1factor": TermKind("b1factor", ATTRIBUTE),
    "b2factor": TermKind("b2factor", ATTRIBUTE),
    "b1nodematch": TermKind("b1nodematch", ATTRIBUTE, nodematch=True),
    "b2nodematch": TermKind("b2nodematch", ATTRIBUTE, nodematch=True),
    "b2star2": TermKind("b2star", 2),
    "b2degree1": TermKind("b2degree", 1),
    "b2sociality": TermKind("b2sociality"),
}
NODEMATCH_KINDS = tuple(kind for kind, entry in KINDS.items() if entry.nodematch)


def format_exponent(value: float) -> str:
    """`value` as `:g` writes it when that reads back as the same float, else its repr."""
    short = f"{value:g}"
    return short if float(short) == value else repr(float(value))


@dataclass(frozen=True)
class ModelTerm:
    """One term of a model formula.

    Nodematch terms carry exactly one of alpha (node-centric) or beta
    (edge-centric); leaving both unset makes a template term whose
    exponent a profile run binds later.
    """

    kind: str
    attribute: str | None = None
    alpha: float | None = None
    beta: float | None = None
    diff: bool = False
    keep_levels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown term kind {self.kind!r}")
        if KINDS[self.kind].takes == ATTRIBUTE:
            if not self.attribute:
                raise ValueError(f"term {self.kind} requires an attribute name")
        elif self.attribute is not None:
            raise ValueError(f"term {self.kind} takes no attribute")
        if self.kind not in NODEMATCH_KINDS:
            for name, value in (("alpha", self.alpha), ("beta", self.beta)):
                if value is not None:
                    raise ValueError(f"term {self.kind} takes no {name}")
            if self.diff:
                raise ValueError(f"term {self.kind} takes no diff flag")
            if self.keep_levels is not None:
                raise ValueError(f"term {self.kind} takes no keep levels")
        else:
            if self.alpha is not None and self.beta is not None:
                raise ValueError(
                    f"term {self.kind}({self.attribute!r}): alpha and beta conflict; set one"
                )
            for name, value in (("alpha", self.alpha), ("beta", self.beta)):
                if value is not None and not 0.0 <= value <= 1.0:
                    raise ValueError(f"{name} must lie in [0, 1], got {value}")
            if self.keep_levels is not None:
                if not self.keep_levels:
                    # it would keep no statistic, and format_spec could not write it
                    raise ValueError(f"term {self.kind}({self.attribute!r}): keep_levels is empty")
                object.__setattr__(self, "keep_levels", tuple(sorted(self.keep_levels)))
        # a formula string has no escapes, so it can hold one quote character only
        for name in (self.attribute, *(self.keep_levels or ())):
            if name is not None and '"' in name and "'" in name:
                raise ValueError(
                    f"term {self.kind}: {name!r} holds both quote characters,"
                    " so it cannot be written in a formula"
                )

    @property
    def exponent(self) -> float | None:
        return self.alpha if self.alpha is not None else self.beta

    @property
    def is_unbound_nodematch(self) -> bool:
        return self.kind in NODEMATCH_KINDS and self.alpha is None and self.beta is None


@dataclass(frozen=True)
class ModelSpec:
    """Ordered term list; the statistic vector follows term order, with
    diff and factor terms expanded into one statistic per level."""

    terms: tuple[ModelTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def unbound_index(self) -> int | None:
        """Index of the single exponent-free nodematch term, if any."""
        hits = [t for t in self.terms if t.is_unbound_nodematch]
        if not hits:
            return None
        if len(hits) > 1:
            raise ValueError("more than one nodematch term without an exponent")
        return self.terms.index(hits[0])

    def bind_exponent(self, which: str, value: float) -> "ModelSpec":
        """Fill in the unbound nodematch exponent (which is 'alpha' or 'beta')."""
        idx = self.unbound_index()
        if idx is None:
            raise ValueError("no nodematch term with an unbound exponent")
        if which not in ("alpha", "beta"):
            raise ValueError(f"exponent kind must be 'alpha' or 'beta', got {which!r}")
        bound = replace(self.terms[idx], **{which: float(value)})
        terms = list(self.terms)
        terms[idx] = bound
        return ModelSpec(tuple(terms))


# ---------------------------------------------------------------------------
# term evaluators
# ---------------------------------------------------------------------------


# change(mask, i, k) -> the (statistic index, value) pairs of a toggle
ChangeKernel = Callable[[list[int], int, int], tuple[tuple[int, float], ...]]


class _Evaluator:
    """Shared surface: `offset`, the index of the evaluator's first slot
    in the model's statistic vector, `names` and `width`.

    A `dyad_independent` family holds data alone, which `BoundModel` reads
    into its per-node table `node` when it is bound.  The other families
    have `stats`, `change` and `columns`.  `columns(B)` gives the change
    statistics of every dyad at once from the n1 x n2 float biadjacency
    matrix `B`: a (n1 * n2, width) array whose rows follow `B.ravel()`,
    that is mode-1 node outer, mode-2 node inner.  `change(mask, i, k)`, a
    closure built in `__init__`, serves one dyad of a network that changes
    between calls, read through the network's neighbour masks `net.mask`.
    It returns a tuple of the (statistic index, value) pairs that toggling
    (i, k) moves: each index is a slot of its own term, and a slot of the
    term that no pair names has change 0.0.  The chain calls
    `BoundModel.dependent_change`, these kernels joined, on every proposal.
    """

    offset: int
    names: list[str]
    width: int
    change: ChangeKernel
    # a dyad's change statistics do not depend on the rest of the network
    dyad_independent = False


class _NodeSlot(_Evaluator):
    """An edge adds the value of its node in `mode` to that node's slot:
    1.0 in slot 0 for `edges`, the covariate for `b1cov` and `b2cov`, 1.0
    in the slot of the node's level for `b1factor` and `b2factor`, and in
    the node's own slot for `b2sociality`.  `slots` and `values` hold one
    entry per node of the mode, in node order; a node that counts nowhere
    has slot 0 and value 0.0."""

    dyad_independent = True

    def __init__(self, offset: int, names: list[str], mode: int,
                 slots: list[int], values: list[float]):
        self.offset, self.names, self.width, self.mode = offset, names, len(names), mode
        self.slots, self.values = slots, values


class _Mode2Degree(_Evaluator):
    """Sum over mode-2 nodes of `value[degree]`.  A dyad's change statistic
    is the gain `value[d + 1] - value[d]`, d being the mode-2 node's degree
    without the dyad; the kernel reads its pair at the popcount d + 1."""

    width = 1

    def __init__(self, offset: int, name: str, value: list[float], n1: int, n2: int):
        self.offset, self.names, self.value = offset, [name], value
        self.gain = gain = [b - a for a, b in zip(value, value[1:])]
        pair_with, bit = [((offset, g),) for g in [0.0] + gain], node_bits(n1, n2)

        def change(mask, i, k):
            return pair_with[(mask[k] | bit[i]).bit_count()]

        self.change = change

    def stats(self, net):
        return np.array([sum(self.value[mk.bit_count()] for mk in net.mask[net.n1 + 1 :])])

    def columns(self, B):
        d_other = (B.sum(axis=0) - B).astype(np.int64)
        return np.asarray(self.gain)[d_other].reshape(-1, 1)


def _end(mode: int, n1: int, n2: int) -> int:
    """One past the last node of the mode."""
    return n1 + 1 if mode == 1 else n1 + n2 + 1


def _level_masks(codes: list[int], count: int) -> list[int]:
    """`level[c]`, the mask of the nodes of level code c, from one code per
    node of a mode in node order."""
    top, level = len(codes) - 1, [0] * count
    for o, c in enumerate(codes):
        level[c] |= 1 << (top - o)
    return level


def _spectrum(net: BipartiteNetwork, mode: int, kept: list[tuple[int, int]],
              node_centric: bool, width: int) -> list[Counter]:
    """The shared-partner walk behind `_Nodematch.spectrum`, over `kept`,
    the (level mask, slot) pairs of the kept levels of mode `mode`.  Each
    node of the other mode, the centre, is visited once; its partners in a
    kept level are that level's mask ANDed with the centre's."""
    centres = net.mask[net.n1 + 1 :] if mode == 1 else net.mask[1 : net.n1 + 1]
    end, counts = _end(mode, net.n1, net.n2), [Counter() for _ in range(width)]
    for mc in centres:
        for level, slot in kept:
            m = mc & level
            if not m & (m - 1):  # fewer than two partners: no two-path
                continue
            if node_centric:
                counts[slot].update(combinations(partners(m, end), 2))
            else:
                # each of the size partners has size - 1 matching co-edges here
                size = m.bit_count()
                counts[slot][size - 1] += size
    return [Counter(pairs.values()) for pairs in counts] if node_centric else counts


class _Nodematch(_Evaluator):
    """Homophily statistic with a node-centric or edge-centric exponent.

    `kept` is the term's one level table: a (mask of the level's nodes,
    slot) pair per kept level, in level order.  The spectrum, the change
    kernel and the MPLE columns each walk it.  Both change statistics count
    neighbours with the network's masks and `others[focal]`, the mask of
    the nodes in focal's kept level other than focal: the node-centric one
    walks the bits of `mask[shared] & others[focal]`, the same-level
    partners j of the shared node, in ascending node order and adds the
    gain of the partners that focal shares with each j; the edge-centric
    one is the popcount of that mask.  The order is fixed, so the float sum
    depends on the network alone."""

    def __init__(self, term: ModelTerm, offset: int, n1: int, n2: int, attrs: Attributes):
        if term.is_unbound_nodematch:
            raise ValueError(
                f"{term.kind}({term.attribute!r}) has no exponent bound; "
                "set alpha or beta before evaluating"
            )
        self.mode = 1 if term.kind == "b1nodematch" else 2
        self.node_centric = term.alpha is not None
        col: CategoricalColumn = _table(attrs, self.mode, n1, n2).categorical(term.attribute)

        levels = col.levels
        if term.keep_levels is not None:
            unknown = [v for v in term.keep_levels if v not in levels]
            if unknown:
                raise AttributeLookupError(
                    f"{term.kind}({term.attribute!r}): keep levels {unknown} "
                    f"not among {list(levels)}"
                )
        keep = levels if term.keep_levels is None else term.keep_levels
        kept = [(m, lev) for m, lev in zip(_level_masks(col.codes.tolist(), len(levels)), levels)
                if lev in keep]
        base = f"{term.kind}.{term.attribute}"
        self.names = [f"{base}.{lev}" for _, lev in kept] if term.diff else [base]
        self.width = len(self.names)
        self.kept = [(m, slot if term.diff else 0) for slot, (m, _) in enumerate(kept)]
        # pw[i] = i**e with 0**0 = 0, for every count a network of this shape
        # can reach; dpw[i] = (i+1)**e - i**e, the gain of one more two-path,
        # and a trailing 0.0 that `columns` reads at index -1 and at a node's
        # own degree
        e = float(term.exponent)
        self.pw = pw = [0.0] + [float(i) ** e for i in range(1, max(n1, n2) + 1)]
        self.dpw = [b - a for a, b in zip(pw, pw[1:])] + [0.0]
        # edge_change[u]: the edge-centric change ((1+u)*u**b - u*(u-1)**b)/2 at u
        # matching co-edges; at b=0 it is 0, 1, 1/2 for u=0, 1, >=2.  At u=0,
        # pw[u - 1] wraps to the last (finite) entry and is multiplied by
        # u = 0, so it adds nothing.
        self.edge_change = [0.5 * ((1.0 + u) * pw[u] - u * pw[u - 1]) for u in range(len(pw))]
        self.offset = offset
        self.change = self._kernel(offset, _end(self.mode, n1, n2), node_bits(n1, n2))

    def spectrum(self, net: BipartiteNetwork) -> list[Counter]:
        """One Counter per slot: {t: matching pairs with exactly t shared
        partners} (MDSP) for the node-centric term, {u: edges with exactly
        u matching co-edges} (MESP) for the edge-centric one."""
        return _spectrum(net, self.mode, self.kept, self.node_centric, self.width)

    def stats(self, net):
        # recompose_from_spectrum's sum, in its order, so that the two agree bit for bit
        scale, pw = 1.0 if self.node_centric else 0.5, self.pw
        return np.array([scale * sum(c * pw[t] for t, c in sorted(s.items())) for s in self.spectrum(net)])

    def _kernel(self, offset: int, end: int, bit: list[int]):
        """The change-statistic function, a closure over the term's tables.
        Plain assignments in each branch of `if mode1` skip the tuple that a
        conditional pair would build on every call.  `index[focal]` is the
        statistic index of focal's level; a node outside the kept levels has
        no others, so its change is 0.0 and the kernel returns no pair."""
        mode1, others, index = self.mode == 1, [0] * end, [None] * end
        for level, slot in self.kept:
            for node in partners(level, end):
                others[node], index[node] = level ^ bit[node], offset + slot

        if self.node_centric:
            # the popcount of focal's and j's masks counts the shared node,
            # a partner of j, when focal has the edge; the gain then reads
            # dpw one entry lower, from a copy shifted by one.  The highest
            # bit of a focal-mode mask m stands for node end - m.bit_length().
            dpw = self.dpw
            dpw_less = [0.0] + dpw
            # the pairs when the shared node has no partner in focal's level:
            # one with change 0.0, or none outside the kept levels
            nothing = [((j, 0.0),) if j is not None else () for j in index]

            def change(mask, i, k):
                if mode1:
                    focal, shared = i, k
                else:
                    focal, shared = k, i
                m = mask[shared] & others[focal]
                if not m:
                    return nothing[focal]
                mf = mask[focal]
                gain = dpw_less if mf & bit[shared] else dpw
                total = 0.0
                while m:
                    j = end - m.bit_length()
                    m ^= bit[j]
                    total += gain[(mf & mask[j]).bit_count()]
                return ((index[focal], total),)

            return change

        # pairs[focal][u]: focal's pair at u partners of the shared node in
        # focal's level, focal aside; one list per statistic index
        by_index = {j: [((j, c),) for c in self.edge_change] for j in set(index) - {None}}
        pairs = [by_index[j] if j is not None else [()] for j in index]

        def change(mask, i, k):
            if mode1:
                focal, shared = i, k
            else:
                focal, shared = k, i
            return pairs[focal][(mask[shared] & others[focal]).bit_count()]

        return change

    def columns(self, B):
        # A is focal x shared.  Each kept level fills its own focal rows, so
        # no array spans the focal nodes of two levels; the rows of focal
        # nodes outside the kept levels stay 0.0.  A level mask read with
        # the mode's node count as `end` gives the level's row offsets.
        A = B if self.mode == 1 else B.T
        out = np.zeros(A.shape + (self.width,))
        dpw, edge_change = np.asarray(self.dpw), np.asarray(self.edge_change)
        for level, slot in self.kept:
            rows = partners(level, len(A))
            Ag = A[rows]
            if self.node_centric:
                # M counts two-paths per pair of the level's focal nodes; the
                # gain without the dyad reads dpw[M], through it dpw[M - 1]
                M = (Ag @ Ag.T).astype(np.int64)
                without, through = dpw[M], dpw[M - 1]
                np.fill_diagonal(without, 0.0)
                np.fill_diagonal(through, 0.0)
                out[rows, :, slot] = np.where(Ag > 0, through @ Ag, without @ Ag)
            else:
                # the level's other partners of each shared node
                out[rows, :, slot] = edge_change[(Ag.sum(axis=0) - Ag).astype(np.int64)]
        if self.mode == 2:
            out = out.transpose(1, 0, 2)
        return out.reshape(B.size, self.width)


def _table(attrs: Attributes, mode: int, n1: int, n2: int) -> AttributeTable:
    """The attribute table of `mode`, which must have one row per node of
    the mode: a term indexes it by node."""
    table, nodes = attrs.table_for(mode), n1 if mode == 1 else n2
    if table.size != nodes:
        raise ValueError(
            f"the mode-{mode} attribute table has {table.size} rows for {nodes} mode-{mode} nodes"
        )
    return table


def _build_evaluator(
    term: ModelTerm, offset: int, n1: int, n2: int, attrs: Attributes
) -> _Evaluator:
    """What each term kind means: its family and the table the family reads.
    The evaluator's slots start at `offset`."""
    kind, attr = term.kind, term.attribute
    mode = 2 if kind.startswith("b2") else 1
    if kind == "edges":
        return _NodeSlot(offset, ["edges"], 1, [0] * n1, [1.0] * n1)
    if kind in ("b1cov", "b2cov"):
        values = _table(attrs, mode, n1, n2).numeric(attr).values.tolist()
        return _NodeSlot(offset, [f"{kind}.{attr}"], mode, [0] * len(values), values)
    if kind in ("b1factor", "b2factor"):
        col = _table(attrs, mode, n1, n2).categorical(attr)
        if len(col.levels) < 2:
            raise ValueError(
                f"{kind}({attr!r}): needs at least two levels, got {list(col.levels)}"
            )
        # level code c has slot c - 1; the first sorted level (code 0) is
        # dropped, its nodes in slot 0 with value 0.0
        codes = col.codes.tolist()
        names = [f"{kind}.{attr}.{lev}" for lev in col.levels[1:]]
        return _NodeSlot(offset, names, mode, [max(c - 1, 0) for c in codes],
                         [float(c > 0) for c in codes])
    if kind == "b2sociality":
        names = [f"b2sociality.{k}" for k in range(n1 + 1, n1 + n2 + 1)]
        return _NodeSlot(offset, names, 2, list(range(n2)), [1.0] * n2)
    if kind == "b2star2":
        return _Mode2Degree(offset, "b2star2", [d * (d - 1) / 2.0 for d in range(n1 + 1)], n1, n2)
    if kind == "b2degree1":
        return _Mode2Degree(offset, "b2degree1", [float(d == 1) for d in range(n1 + 1)], n1, n2)
    # ModelTerm admits only the kinds in KINDS, so this is b1nodematch or b2nodematch
    return _Nodematch(term, offset, n1, n2, attrs)


class BoundModel:
    """A ModelSpec bound to network shape and attribute data.

    Binding expands diff/factor terms into per-level statistics, fixes
    the statistic order and names, and validates every attribute
    reference.  Evaluation is then pure in the network argument.
    """

    def __init__(self, spec: ModelSpec, n1: int, n2: int, attrs: Attributes):
        self.spec = spec
        self.n1 = n1
        self.n2 = n2
        self.evaluators: list[_Evaluator] = []
        offset = 0
        for term in spec.terms:
            self.evaluators.append(_build_evaluator(term, offset, n1, n2, attrs))
            offset += self.evaluators[-1].width
        self.p = offset
        self.names = self._unique_names()
        self.dependent = [ev for ev in self.evaluators if not ev.dyad_independent]
        # node[v]: the (statistic index, value) pairs that an edge at node v
        # adds through the node-level terms, in model order, 0.0 values left
        # out; node_columns[j, v] holds the same values densely, 0.0 elsewhere
        node: list[list[tuple[int, float]]] = [[] for _ in range(n1 + n2 + 1)]
        self.node_columns = np.zeros((self.p, n1 + n2 + 1))
        for ev in self.evaluators:
            if not ev.dyad_independent:
                continue
            # slots and values start at the mode's first node
            for v, (slot, value) in enumerate(zip(ev.slots, ev.values), 1 if ev.mode == 1 else n1 + 1):
                j = ev.offset + slot
                if value != 0.0:
                    node[v].append((j, value))
                    self.node_columns[j, v] = value
        self.node = [tuple(pairs) for pairs in node]

    def _unique_names(self) -> list[str]:
        # a repeated nodematch name gets its exponent as a formula writes it;
        # a name that still repeats (same exponent, other keep set) gets a
        # positional suffix from its second occurrence on
        counts = Counter(name for ev in self.evaluators for name in ev.names)
        names = [
            f"{name}.{'alpha' if term.alpha is not None else 'beta'}{format_exponent(term.exponent)}"
            if counts[name] > 1 and term.kind in NODEMATCH_KINDS else name
            for ev, term in zip(self.evaluators, self.spec.terms) for name in ev.names
        ]
        seen: Counter[str] = Counter()
        for n, name in enumerate(names):
            seen[name] += 1
            if seen[name] > 1:
                names[n] = f"{name}.{seen[name]}"
        dupes = sorted(name for name, c in Counter(names).items() if c > 1)
        if dupes:
            raise ValueError(f"duplicate statistic names in model: {dupes}")
        return names

    def _check_net(self, net: BipartiteNetwork) -> None:
        if net.n1 != self.n1 or net.n2 != self.n2:
            raise ValueError(
                f"network is {net.n1}x{net.n2}, model was bound for {self.n1}x{self.n2}"
            )

    def stats(self, net: BipartiteNetwork) -> np.ndarray:
        self._check_net(net)
        # each node adds its pairs once, times its degree, in node order, so
        # the sums do not depend on the order in which edges were added
        counts = [0.0] * self.p
        for pairs, mask in zip(self.node, net.mask):
            if pairs:
                degree = mask.bit_count()
                for j, value in pairs:
                    counts[j] += value * degree
        out = np.array(counts)
        for ev in self.dependent:
            out[ev.offset : ev.offset + ev.width] = ev.stats(net)
        return out

    def dependent_change(self) -> ChangeKernel:
        """The change kernel of the dyad-dependent terms, for the chain:
        `change(mask, i, k)` returns their (statistic index, value) pairs in
        model order.  With one such term it is that term's own kernel, with
        none it returns ().  The evaluators' `change` attributes are read
        when this method is called."""
        kernels = [ev.change for ev in self.dependent]
        if not kernels:
            return lambda mask, i, k: ()
        first, *rest = kernels
        if not rest:
            return first

        def change(mask, i, k):
            pairs = first(mask, i, k)
            for kernel in rest:
                pairs += kernel(mask, i, k)
            return pairs

        return change

    def delta_into(self, net: BipartiteNetwork, i: int, k: int, out: np.ndarray) -> None:
        """`delta` into `out`; besides `delta`, only the `perfbench` probe `terms.delta_us` calls it."""
        out[:] = 0.0
        for j, value in self.node[i] + self.node[k]:
            out[j] = value
        mask = net.mask
        for ev in self.dependent:
            for j, value in ev.change(mask, i, k):
                out[j] = value

    def delta(self, net: BipartiteNetwork, i: int, k: int) -> np.ndarray:
        """Statistics with edge (i, k) present minus without it, whatever its state."""
        self._check_net(net)
        net.check_dyad(i, k)
        out = np.empty(self.p)
        self.delta_into(net, i, k, out)
        return out


def bind(spec: ModelSpec, net: BipartiteNetwork, attrs: Attributes) -> BoundModel:
    return BoundModel(spec, net.n1, net.n2, attrs)


# ---------------------------------------------------------------------------
# shared-partner spectra
# ---------------------------------------------------------------------------


@dataclass
class SharedPartnerSpectrum:
    """Multiplicity histogram for matching pairs (MDSP) or edges (MESP)."""

    kind: str  # "mdsp" or "mesp"
    counts: dict[int, int] = field(default_factory=dict)


def _mode1_spectrum(net: BipartiteNetwork, attrs: Attributes, column: str,
                    node_centric: bool) -> dict[int, int]:
    """Slot 0 of a plain `b1nodematch(column)`, from the column's level
    masks alone: the walk reads no exponent."""
    col = _table(attrs, 1, net.n1, net.n2).categorical(column)
    kept = [(m, 0) for m in _level_masks(col.codes.tolist(), len(col.levels))]
    return dict(sorted(_spectrum(net, 1, kept, node_centric, 1)[0].items()))


def mdsp_spectrum(
    net: BipartiteNetwork, attrs: Attributes, column: str
) -> SharedPartnerSpectrum:
    """Matching mode-1 pairs, bucketed by exact shared-partner count: slot 0
    of a node-centric `b1nodematch(column)`."""
    return SharedPartnerSpectrum("mdsp", _mode1_spectrum(net, attrs, column, True))


def mesp_spectrum(
    net: BipartiteNetwork, attrs: Attributes, column: str
) -> SharedPartnerSpectrum:
    """Edges bucketed by the exact number of matching two-paths containing
    them: slot 0 of an edge-centric `b1nodematch(column)`."""
    return SharedPartnerSpectrum("mesp", _mode1_spectrum(net, attrs, column, False))


def recompose_from_spectrum(spectrum: SharedPartnerSpectrum, exponent: float) -> float:
    """Rebuild the homophily statistic from a spectrum: sum of i**exponent
    times the bucket count, halved for the edge-centric spectrum."""
    if not 0.0 <= exponent <= 1.0:
        raise ValueError(f"exponent must lie in [0, 1], got {exponent}")
    total = sum(
        (float(i) ** exponent if i > 0 else 0.0) * c for i, c in spectrum.counts.items()
    )
    if spectrum.kind == "mesp":
        total *= 0.5
    return total
