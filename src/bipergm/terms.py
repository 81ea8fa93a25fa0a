"""Model terms: full network statistics and exact change statistics.

Every term evaluator computes its statistic by the defining sum and its
change statistic as the exact difference between the edge-present and
edge-absent worlds, so incremental updates in the sampler always agree
with a full recomputation.

The homophily terms support a node-centric exponent (per matching node
pair, the two-path count raised to alpha) and an edge-centric exponent
(per edge, the matching co-edge count raised to beta, summed and halved).
Both exponents live in [0, 1] and 0**0 evaluates to 0, so a matching pair
with no two-path, or an edge with no matching co-edge, contributes nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .graph import AttributeLookupError, Attributes, BipartiteNetwork, CategoricalColumn, node_bits, shared_partners


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
                object.__setattr__(self, "keep_levels", tuple(sorted(self.keep_levels)))

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


def _by_node(values: list, mode: int, n1: int, fill) -> list:
    """A per-mode column laid out by node id, so evaluators index it by node:
    entry `node` holds that node's value, entries before the mode's first
    node hold `fill`."""
    return [fill] * (1 if mode == 1 else n1 + 1) + values


def _of_mode(column: list, mode: int, B: np.ndarray) -> np.ndarray:
    """The mode's entries of a `_by_node` column, in node order."""
    return np.asarray(column[1 if mode == 1 else B.shape[0] + 1 :])


def _per_dyad(rows: np.ndarray, mode: int, B: np.ndarray) -> np.ndarray:
    """Dyad columns that give dyad (i, k) the row of its mode-`mode` node;
    `rows` holds one row (or one value) per node of that mode."""
    n1, n2 = B.shape
    rows = rows.reshape(len(rows), -1)
    grid = rows[:, None, :] if mode == 1 else rows[None, :, :]
    return np.broadcast_to(grid, (n1, n2, rows.shape[1])).reshape(n1 * n2, -1)


class _Evaluator:
    """Shared surface: `offset`, `names`, `width`, `stats`, `delta_into`,
    `columns`.  An evaluator is built with `offset`, the index of its first
    slot in the model's statistic vector.

    `columns(B)` gives the change statistics of every dyad at once from the
    n1 x n2 float biadjacency matrix `B`: a (n1 * n2, width) array whose
    rows follow `B.ravel()`, that is mode-1 node outer, mode-2 node inner.
    `delta_into(net, i, k, out)`, a closure built in `__init__`, serves one
    dyad of a network that changes between calls: the chain calls it on
    every proposal, after zeroing the buffer, so it writes only slots of its
    own term and may skip a slot that stays zero.
    """

    offset: int
    names: list[str]
    width: int
    delta_into: Callable[[BipartiteNetwork, int, int, list], None]
    # a dyad's change statistics do not depend on the rest of the network
    dyad_independent = False

    def stats(self, net: BipartiteNetwork) -> np.ndarray:
        raise NotImplementedError

    def columns(self, B: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class _NodeSlot(_Evaluator):
    """An edge adds the value of its node in `mode` to that node's slot:
    1.0 in slot 0 for `edges`, the covariate for `b1cov` and `b2cov`, 1.0
    in the slot of the node's level for `b1factor` and `b2factor`, and in
    the node's own slot for `b2sociality`.  A node that counts nowhere has
    slot 0 and value 0.0, so the kernel writes one slot with no branch."""

    dyad_independent = True

    def __init__(self, offset: int, names: list[str], mode: int, n1: int,
                 slots: list[int], values: list[float]):
        self.offset, self.names, self.width, self.mode = offset, names, len(names), mode
        self.slot = _by_node(slots, mode, n1, 0)
        self.value = _by_node(values, mode, n1, 0.0)
        index, value, mode1 = [offset + s for s in self.slot], self.value, mode == 1

        def delta_into(net, i, k, out):
            node = i if mode1 else k
            out[index[node]] = value[node]

        self.delta_into = delta_into

    def stats(self, net):
        slot, value, mode1 = self.slot, self.value, self.mode == 1
        counts = [0.0] * self.width
        for i, k in net.edges():
            node = i if mode1 else k
            counts[slot[node]] += value[node]
        return np.array(counts)

    def columns(self, B):
        slot = _of_mode(self.slot, self.mode, B)
        value = _of_mode(self.value, self.mode, B)
        rows = np.where(slot[:, None] == np.arange(self.width), value[:, None], 0.0)
        return _per_dyad(rows, self.mode, B)


class _Mode2Degree(_Evaluator):
    """Sum over mode-2 nodes of `value[degree]`.  A dyad's change statistic
    is the gain `value[d + 1] - value[d]`, d being the mode-2 node's degree
    without the dyad; the kernel reads it at the popcount d + 1."""

    width = 1

    def __init__(self, offset: int, name: str, value: list[float], n1: int, n2: int):
        self.offset, self.names, self.value = offset, [name], value
        self.gain = gain = [b - a for a, b in zip(value, value[1:])]
        gain_with, bit = [0.0] + gain, node_bits(n1, n2)

        def delta_into(net, i, k, out):
            out[offset] = gain_with[(net.mask[k] | bit[i]).bit_count()]

        self.delta_into = delta_into

    def stats(self, net):
        return np.array([sum(self.value[mk.bit_count()] for mk in net.mask[net.n1 + 1 :])])

    def columns(self, B):
        d_other = (B.sum(axis=0) - B).astype(np.int64)
        return np.asarray(self.gain)[d_other].reshape(-1, 1)


class _Nodematch(_Evaluator):
    """Homophily statistic with a node-centric or edge-centric exponent.

    Both change statistics count neighbours with the network's masks and
    `others[focal]`, the mask of the kept nodes in focal's level other than
    focal: the node-centric one walks the bits of `mask[shared] &
    others[focal]`, the same-level partners j of the shared node, in
    ascending node order and adds the gain of the partners that focal
    shares with each j; the edge-centric one is the popcount of that mask.
    The order is fixed, so the float sum depends on the network alone."""

    def __init__(self, term: ModelTerm, offset: int, n1: int, n2: int, attrs: Attributes):
        if term.is_unbound_nodematch:
            raise ValueError(
                f"{term.kind}({term.attribute!r}) has no exponent bound; "
                "set alpha or beta before evaluating"
            )
        self.mode = 1 if term.kind == "b1nodematch" else 2
        self.node_centric = term.alpha is not None
        col: CategoricalColumn = attrs.table_for(self.mode).categorical(term.attribute)

        levels = col.levels
        if term.keep_levels is not None:
            unknown = [v for v in term.keep_levels if v not in levels]
            if unknown:
                raise AttributeLookupError(
                    f"{term.kind}({term.attribute!r}): keep levels {unknown} "
                    f"not among {list(levels)}"
                )
            kept_levels = [v for v in levels if v in term.keep_levels]
        else:
            kept_levels = list(levels)
        self.slot_of_code = [-1] * len(levels)
        base = f"{term.kind}.{term.attribute}"
        if term.diff:
            for slot, lev in enumerate(kept_levels):
                self.slot_of_code[levels.index(lev)] = slot
            self.width = len(kept_levels)
            self.names = [f"{base}.{lev}" for lev in kept_levels]
        else:
            for lev in kept_levels:
                self.slot_of_code[levels.index(lev)] = 0
            self.width = 1
            self.names = [base]
        # node-indexed level code, -1 for a node whose level is not kept
        codes = [c if self.slot_of_code[c] >= 0 else -1 for c in col.codes.tolist()]
        self.group = _by_node(codes, self.mode, n1, -1)
        # pw[i] = i**e with 0**0 = 0, for every count a network of this shape
        # can reach; dpw[i] = (i+1)**e - i**e, the gain of one more two-path
        e = float(term.exponent)
        self.pw = [0.0] + [float(i) ** e for i in range(1, max(n1, n2) + 1)]
        self.dpw = [b - a for a, b in zip(self.pw, self.pw[1:])]
        # others[f]: the mask of the kept nodes in f's level other than f
        self.bits = bits = node_bits(n1, n2)
        level = [0] * len(levels)
        for node, g in enumerate(self.group):
            if g >= 0:
                level[g] |= bits[node]
        self.others = [
            level[g] ^ bits[node] if g >= 0 else 0 for node, g in enumerate(self.group)
        ]
        self.offset = offset
        # one past the last node of focal's mode
        self.delta_into = self._kernel(offset, n1 + 1 if self.mode == 1 else n1 + n2 + 1)

    def stats(self, net):
        out = np.zeros(self.width)
        slot_of, group, pw = self.slot_of_code, self.group, self.pw
        pairs, spectra = shared_partners(net, self.mode, group, pairs=self.node_centric)
        if self.node_centric:
            for (a, _b), t in pairs.items():
                out[slot_of[group[a]]] += pw[t]
            return out
        for g, spectrum in spectra.items():
            for u, edges in spectrum.items():
                out[slot_of[g]] += edges * pw[u]
        out *= 0.5
        return out

    def _kernel(self, offset: int, end: int):
        """The change-statistic function, a closure over the term's tables.
        Plain assignments in each branch of `if mode1` skip the tuple that a
        conditional pair would build on every call.  `index[focal]` is the
        output slot of focal's level; a node outside the kept levels gets
        the term's first slot and has no others, so it writes 0.0 there."""
        mode1, others = self.mode == 1, self.others
        index = [offset + (self.slot_of_code[g] if g >= 0 else 0) for g in self.group]

        if self.node_centric:
            # the popcount of focal's and j's masks counts the shared node,
            # a partner of j, when focal has the edge; the gain then reads
            # dpw one entry lower, from a copy shifted by one.  The highest
            # bit of a focal-mode mask m stands for node end - m.bit_length().
            dpw, bit = self.dpw, self.bits
            dpw_less = [0.0] + dpw

            def delta_into(net, i, k, out):
                if mode1:
                    focal, shared = i, k
                else:
                    focal, shared = k, i
                mask = net.mask
                mf = mask[focal]
                gain = dpw_less if mf & bit[shared] else dpw
                m = mask[shared] & others[focal]
                total = 0.0
                while m:
                    j = end - m.bit_length()
                    m ^= bit[j]
                    total += gain[(mf & mask[j]).bit_count()]
                out[index[focal]] = total

            return delta_into

        pw = self.pw

        def delta_into(net, i, k, out):
            if mode1:
                focal, shared = i, k
            else:
                focal, shared = k, i
            # u: partners of the shared node in focal's level, focal aside
            u = (net.mask[shared] & others[focal]).bit_count()
            # exact change ((1+u)*u**b - u*(u-1)**b)/2; at b=0 it is 0, 1, 1/2
            # for u=0, 1, >=2.  At u=0, pw[u - 1] wraps to the last (finite)
            # entry and is multiplied by u = 0, so it adds nothing.
            out[index[focal]] = 0.5 * ((1.0 + u) * pw[u] - u * pw[u - 1])

        return delta_into

    def columns(self, B):
        # A is focal x shared and S marks same-group focal pairs; the rows of
        # focal nodes outside the kept levels (group -1) get no slot below
        A = B if self.mode == 1 else B.T
        group = _of_mode(self.group, self.mode, B)
        S = group[:, None] == group
        np.fill_diagonal(S, False)
        S = S.astype(np.float64)
        if self.node_centric:
            # M counts two-paths per focal pair.  A pair that shares every
            # partner (and the diagonal) would index past dpw; those entries
            # meet a zero in S or A, but the index must still be valid.
            M = (A @ A.T).astype(np.int64)
            dpw = np.asarray(self.dpw)
            top = len(dpw) - 1
            without = (S * dpw[np.clip(M, 0, top)]) @ A
            through = (S * dpw[np.clip(M - 1, 0, top)]) @ A
            change = np.where(A > 0, through, without)
        else:
            u = (S @ A).astype(np.int64)
            pw = np.asarray(self.pw)
            change = 0.5 * ((1.0 + u) * pw[u] - u * pw[u - 1])
        # scatter each focal node's row into the slot of its level; group -1
        # picks the appended slot -1, which matches no column
        slot = np.asarray(self.slot_of_code + [-1])[group]
        out = change[:, :, None] * (slot[:, None, None] == np.arange(self.width))
        if self.mode == 2:
            out = out.transpose(1, 0, 2)
        return out.reshape(B.size, self.width)


def _build_evaluator(
    term: ModelTerm, offset: int, n1: int, n2: int, attrs: Attributes
) -> _Evaluator:
    """What each term kind means: its family and the table the family reads.
    The evaluator's slots start at `offset`."""
    kind, attr = term.kind, term.attribute
    mode = 2 if kind.startswith("b2") else 1
    if kind == "edges":
        return _NodeSlot(offset, ["edges"], 1, n1, [0] * n1, [1.0] * n1)
    if kind in ("b1cov", "b2cov"):
        values = attrs.table_for(mode).numeric(attr).values.tolist()
        return _NodeSlot(offset, [f"{kind}.{attr}"], mode, n1, [0] * len(values), values)
    if kind in ("b1factor", "b2factor"):
        col = attrs.table_for(mode).categorical(attr)
        if len(col.levels) < 2:
            raise ValueError(
                f"{kind}({attr!r}): needs at least two levels, got {list(col.levels)}"
            )
        # level code c has slot c - 1; the first sorted level (code 0) is
        # dropped, its nodes in slot 0 with value 0.0
        codes = col.codes.tolist()
        names = [f"{kind}.{attr}.{lev}" for lev in col.levels[1:]]
        return _NodeSlot(offset, names, mode, n1, [max(c - 1, 0) for c in codes],
                         [float(c > 0) for c in codes])
    if kind == "b2sociality":
        names = [f"b2sociality.{k}" for k in range(n1 + 1, n1 + n2 + 1)]
        return _NodeSlot(offset, names, 2, n1, list(range(n2)), [1.0] * n2)
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

    def _unique_names(self) -> list[str]:
        names: list[str] = []
        owners: list[ModelTerm] = []
        for ev, term in zip(self.evaluators, self.spec.terms):
            names.extend(ev.names)
            owners.extend([term] * ev.width)
        counts = Counter(names)
        if max(counts.values(), default=0) > 1:
            resolved = []
            for name, term in zip(names, owners):
                if counts[name] > 1 and term.kind in NODEMATCH_KINDS:
                    tag = "alpha" if term.alpha is not None else "beta"
                    name = f"{name}.{tag}{term.exponent:g}"
                resolved.append(name)
            names = resolved
        # still-colliding names (e.g. same exponent, different keep sets)
        # get a positional suffix
        counts = Counter(names)
        if max(counts.values(), default=0) > 1:
            seen: Counter[str] = Counter()
            resolved = []
            for name in names:
                seen[name] += 1
                if counts[name] > 1 and seen[name] > 1:
                    name = f"{name}.{seen[name]}"
                resolved.append(name)
            names = resolved
        if len(set(names)) != len(names):
            dupes = sorted(n for n, c in Counter(names).items() if c > 1)
            raise ValueError(f"duplicate statistic names in model: {dupes}")
        return names

    def _check_net(self, net: BipartiteNetwork) -> None:
        if net.n1 != self.n1 or net.n2 != self.n2:
            raise ValueError(
                f"network is {net.n1}x{net.n2}, model was bound for {self.n1}x{self.n2}"
            )

    def stats(self, net: BipartiteNetwork) -> np.ndarray:
        self._check_net(net)
        out = np.empty(self.p)
        for ev in self.evaluators:
            out[ev.offset : ev.offset + ev.width] = ev.stats(net)
        return out

    def delta_into(self, net: BipartiteNetwork, i: int, k: int, out: np.ndarray) -> None:
        out[:] = 0.0
        for ev in self.evaluators:
            ev.delta_into(net, i, k, out)

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


def mdsp_spectrum(
    net: BipartiteNetwork, attrs: Attributes, column: str
) -> SharedPartnerSpectrum:
    """Matching mode-1 pairs, bucketed by exact shared-partner count."""
    codes = attrs.table_for(1).categorical(column).codes.tolist()
    pairs, _ = shared_partners(net, 1, _by_node(codes, 1, net.n1, -1))
    return SharedPartnerSpectrum("mdsp", dict(Counter(pairs.values())))


def mesp_spectrum(
    net: BipartiteNetwork, attrs: Attributes, column: str
) -> SharedPartnerSpectrum:
    """Edges bucketed by the exact number of matching two-paths containing them."""
    codes = attrs.table_for(1).categorical(column).codes.tolist()
    _, spectra = shared_partners(net, 1, _by_node(codes, 1, net.n1, -1), pairs=False)
    counts: Counter[int] = Counter()
    for spectrum in spectra.values():
        counts.update(spectrum)
    return SharedPartnerSpectrum("mesp", dict(counts))


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
