"""Bipartite network storage with O(1) edge queries and in-place toggles.

Nodes are 1-based integers: mode-1 nodes are 1..n1, mode-2 nodes are
n1+1..n1+n2.  Edges are only permitted between modes.  The structure keeps
each node's neighbours only as one int bitmask per node, `mask[node]`
(`mask[0]` is 0), so that an edge query is one bit and a count of shared
neighbours is a popcount, plus an indexed edge list so that samplers can
pick a uniformly random edge in O(1).  `node_bits` is the one place that
lays out the mask bits; `partners` is the one walk from a mask back to
nodes, in ascending node order.  Two-paths are counted per centre, as the
pairs of its partners (`project`, `terms._Nodematch.spectrum`)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np


class ModeViolationError(ValueError):
    """A dyad or node argument does not respect the two-mode structure."""


class ColumnTypeError(TypeError):
    """An attribute column has the wrong type for the requested operation."""


class AttributeLookupError(KeyError):
    """A model names an attribute table, column or level that the inputs
    lack; the CLI reports it as an input error, and any other KeyError is a
    program fault."""

    # the message as given, not quoted as a KeyError prints its key
    __str__ = Exception.__str__


def node_bits(n1: int, n2: int) -> list[int]:
    """`bits[node]` is the bit that stands for `node` in the masks of its
    partners (`bits[0]` is 0).  Each mode gives its last node bit 0 and its
    first node its top bit, so a mask is no longer than the other mode has
    nodes, and the node of a mask's highest bit is `end - bit_length()`,
    `end` being one past the mode's last node."""
    return [0] + [1 << b for b in reversed(range(n1))] + [1 << b for b in reversed(range(n2))]


def partners(mask: int, end: int) -> list[int]:
    """The nodes whose bits `mask` sets, in ascending order; `end` is one
    past the last node of their mode."""
    nodes = []
    while mask:
        nodes.append(end - mask.bit_length())
        mask ^= 1 << (mask.bit_length() - 1)
    return nodes


class BipartiteNetwork:
    """Binary two-mode network on n1 + n2 nodes; hot paths read `mask`
    directly."""

    __slots__ = ("n1", "n2", "mask", "_bit", "_edge_list", "_edge_pos")

    def __init__(self, n1: int, n2: int):
        if n1 < 0 or n2 < 0:
            raise ValueError(f"node counts must be nonnegative, got n1={n1} n2={n2}")
        self.n1, self.n2 = n1, n2
        # mask[node] ORs bits[s] over the partners s of node
        self.mask: list[int] = [0] * (n1 + n2 + 1)
        self._bit = node_bits(n1, n2)
        self._edge_list: list[tuple[int, int]] = []
        self._edge_pos: dict[tuple[int, int], int] = {}

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def edge_count(self) -> int:
        return len(self._edge_list)

    @property
    def dyad_count(self) -> int:
        return self.n1 * self.n2

    def has_edge(self, i: int, k: int) -> bool:
        self.check_dyad(i, k)
        return bool(self.mask[i] & self._bit[k])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate current edges in insertion order."""
        return iter(self._edge_list)

    def neighbors(self, node: int) -> tuple[int, ...]:
        """The mode-2 partners of a mode-1 node and vice versa, in ascending
        order, read from `mask[node]` into a fresh tuple.

        No path in the package reads it; it stays for the `perfbench` probe
        `graph.neighbors_ns` and `test_beta_zero_change_values`."""
        self._check_node(node)
        return tuple(partners(self.mask[node], self.n + 1 if node <= self.n1 else self.n1 + 1))

    # -- validation ---------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 1 <= node <= self.n:
            raise ValueError(f"node {node} out of range 1..{self.n}")

    def check_dyad(self, i: int, k: int) -> None:
        """Validate that (i, k) is a legal mode-1 x mode-2 dyad."""
        self._check_node(i)
        self._check_node(k)
        if i > self.n1 or k <= self.n1:
            raise ModeViolationError(
                f"dyad ({i}, {k}) violates the mode restriction: "
                f"expected 1<={i}<={self.n1} and {self.n1}<{k}<={self.n}"
            )

    def check_has_dyads(self) -> None:
        """Refuse a network with an empty mode: it has no dyad to toggle or fit."""
        for mode, size in ((1, self.n1), (2, self.n2)):
            if size == 0:
                raise ValueError(
                    f"mode {mode} has no nodes, so the network has no dyads to toggle"
                )

    # -- mutation -----------------------------------------------------------

    def toggle(self, i: int, k: int) -> bool:
        """Flip dyad (i, k) in place; True if the edge is present after."""
        self.check_dyad(i, k)
        if self.mask[i] & self._bit[k]:
            self._remove(i, k)
            return False
        self._add(i, k)
        return True

    def _add(self, i: int, k: int) -> None:
        mask, bit = self.mask, self._bit
        mask[i] ^= bit[k]
        mask[k] ^= bit[i]
        self._edge_pos[(i, k)] = len(self._edge_list)
        self._edge_list.append((i, k))

    def _remove(self, i: int, k: int) -> None:
        mask, bit = self.mask, self._bit
        mask[i] ^= bit[k]
        mask[k] ^= bit[i]
        pos = self._edge_pos.pop((i, k))
        last = self._edge_list.pop()
        if last != (i, k):
            self._edge_list[pos] = last
            self._edge_pos[last] = pos

    def copy(self) -> "BipartiteNetwork":
        dup = BipartiteNetwork(self.n1, self.n2)
        dup.mask = list(self.mask)
        dup._edge_list = list(self._edge_list)
        dup._edge_pos = dict(self._edge_pos)
        return dup

    def biadjacency(self) -> np.ndarray:
        """Dense n1 x n2 0/1 matrix (row i-1, column k-n1-1)."""
        mat = np.zeros((self.n1, self.n2), dtype=np.int64)
        for i, k in self._edge_list:
            mat[i - 1, k - self.n1 - 1] = 1
        return mat

    def check_consistency(self) -> None:
        """Debug-level audit: the edge index must place each listed edge at its
        position, and the masks must equal masks rebuilt from the edge list."""
        if self._edge_pos != {edge: p for p, edge in enumerate(self._edge_list)}:
            raise AssertionError("edge bookkeeping out of sync")
        bit, rebuilt = self._bit, [0] * (self.n + 1)
        for i, k in self._edge_list:
            rebuilt[i] |= bit[k]
            rebuilt[k] |= bit[i]
        if self.mask != rebuilt:
            raise AssertionError("neighbor masks out of sync with the edge list")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteNetwork):
            return NotImplemented
        return self.n1 == other.n1 and self.n2 == other.n2 and self.mask == other.mask

    def __repr__(self) -> str:
        return f"BipartiteNetwork(n1={self.n1}, n2={self.n2}, edges={self.edge_count})"


def from_edge_list(
    n1: int, n2: int, dyads: Iterable[tuple[int, int]]
) -> BipartiteNetwork:
    """Build a network from a dyad list; duplicates collapse silently."""
    net = BipartiteNetwork(n1, n2)
    for i, k in dyads:
        if not net.has_edge(i, k):
            net._add(i, k)
    return net


# ---------------------------------------------------------------------------
# nodal attributes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CategoricalColumn:
    """Fixed-level categorical attribute, one code per node of the mode."""

    name: str
    levels: tuple[str, ...]  # sorted lexicographically, fixed at load
    codes: np.ndarray  # int codes, offset-indexed

    def level_of(self, offset: int) -> str:
        return self.levels[int(self.codes[offset])]


@dataclass(frozen=True)
class NumericColumn:
    """Real-valued attribute, offset-indexed."""

    name: str
    values: np.ndarray


class AttributeTable:
    """Named attribute columns for the nodes of one mode.

    Every node of the mode must have a value in every column; loaders
    enforce this, and `add_*` checks lengths and refuses a name twice.
    """

    def __init__(self, mode: int, size: int):
        if mode not in (1, 2):
            raise ValueError(f"mode must be 1 or 2, got {mode}")
        self.mode = mode
        self.size = size
        self._columns: dict[str, CategoricalColumn | NumericColumn] = {}

    def add_categorical(self, name: str, values: Sequence[str]) -> None:
        if len(values) != self.size:
            raise ValueError(
                f"column {name!r}: {len(values)} values for {self.size} mode-{self.mode} nodes"
            )
        levels = tuple(sorted(set(str(v) for v in values)))
        index = {lev: c for c, lev in enumerate(levels)}
        codes = np.array([index[str(v)] for v in values], dtype=np.int64)
        self._store(CategoricalColumn(name, levels, codes))

    def add_numeric(self, name: str, values: Sequence[float]) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (self.size,):
            raise ValueError(
                f"column {name!r}: {arr.shape} values for {self.size} mode-{self.mode} nodes"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"column {name!r}: non-finite values are not allowed")
        self._store(NumericColumn(name, arr))

    def _store(self, column: CategoricalColumn | NumericColumn) -> None:
        if column.name in self._columns:
            raise ValueError(f"duplicate column {column.name!r}")
        self._columns[column.name] = column

    @property
    def names(self) -> list[str]:
        return list(self._columns)

    def column(self, name: str) -> CategoricalColumn | NumericColumn:
        try:
            return self._columns[name]
        except KeyError:
            raise AttributeLookupError(
                f"unknown attribute {name!r} on mode {self.mode}; "
                f"available: {self.names}"
            ) from None

    def categorical(self, name: str) -> CategoricalColumn:
        col = self.column(name)
        if not isinstance(col, CategoricalColumn):
            raise ColumnTypeError(f"column {name!r} is numeric, expected categorical")
        return col

    def numeric(self, name: str) -> NumericColumn:
        col = self.column(name)
        if not isinstance(col, NumericColumn):
            raise ColumnTypeError(f"column {name!r} is categorical, expected numeric")
        return col


@dataclass(frozen=True)
class Attributes:
    """Bundle of per-mode attribute tables; either side may be absent."""

    mode1: AttributeTable | None = None
    mode2: AttributeTable | None = None

    def table_for(self, mode: int) -> AttributeTable:
        table = self.mode1 if mode == 1 else self.mode2
        if table is None:
            raise AttributeLookupError(f"no attribute table supplied for mode {mode}")
        return table


# ---------------------------------------------------------------------------
# one-mode projections
# ---------------------------------------------------------------------------


@dataclass
class WeightedProjection:
    """One-mode projection: pair weights equal two-path multiplicities."""

    mode: int
    weights: dict[tuple[int, int], int] = field(default_factory=dict)

    def weight(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        return self.weights.get((a, b), 0)


def project(net: BipartiteNetwork, mode: int) -> WeightedProjection:
    """Project onto one mode; pairs without a two-path are omitted."""
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    n1, n = net.n1, net.n
    # each two-path is a pair of partners of its centre, a node of the other mode
    centres, end = (net.mask[n1 + 1 :], n1 + 1) if mode == 1 else (net.mask[1 : n1 + 1], n + 1)
    weights = Counter(pair for m in centres for pair in combinations(partners(m, end), 2))
    return WeightedProjection(mode=mode, weights=weights)
