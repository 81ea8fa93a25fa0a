import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bipergm import AttributeTable, Attributes, ModelSpec, ModelTerm, from_edge_list
from bipergm.terms import KINDS

# the worked five-edge example: three mode-1 nodes, two mode-2 nodes,
# node 1 tied to both events, nodes 2 tied to both, node 3 only to event 4
FIG2_EDGES = [(1, 4), (2, 4), (3, 4), (1, 5), (2, 5)]


@pytest.fixture
def fig2_net():
    return from_edge_list(3, 2, FIG2_EDGES)


@pytest.fixture
def fig2_attrs():
    table = AttributeTable(1, 3)
    table.add_categorical("group", ["x", "x", "x"])
    return Attributes(mode1=table)


def make_attrs1(values, name="group", numeric=None):
    table = AttributeTable(1, len(values))
    table.add_categorical(name, values)
    if numeric is not None:
        table.add_numeric(numeric[0], numeric[1])
    return Attributes(mode1=table)


def random_net(rng: np.random.Generator, n1: int, n2: int, density: float = 0.4):
    dyads = [
        (i, k)
        for i in range(1, n1 + 1)
        for k in range(n1 + 1, n1 + n2 + 1)
        if rng.random() < density
    ]
    return from_edge_list(n1, n2, dyads)


def _level_draw(rng, size, levels):
    # guarantee at least two distinct levels whenever there is room
    values = [str(rng.choice(levels)) for _ in range(size)]
    if size >= 2 and len(set(values)) == 1:
        values[0] = levels[0] if values[0] != levels[0] else levels[1]
    return values


def random_attrs(rng: np.random.Generator, n1: int, n2: int, levels=("a", "b")):
    t1 = AttributeTable(1, n1)
    t1.add_categorical("group", _level_draw(rng, n1, levels))
    t1.add_numeric("x", rng.normal(size=n1))
    t2 = AttributeTable(2, n2)
    t2.add_categorical("kind", _level_draw(rng, n2, levels))
    t2.add_numeric("z", rng.normal(size=n2))
    return Attributes(mode1=t1, mode2=t2)


def categories_dict(attrs: Attributes, mode: int, column: str, n1: int):
    """Node-id -> level-string map for the reference implementations."""
    table = attrs.table_for(mode)
    col = table.categorical(column)
    first = 1 if mode == 1 else n1 + 1
    return {first + off: col.level_of(off) for off in range(table.size)}


def every_term_kind(attrs, which, exponent):
    """Every term kind in the catalogue; nodematch in both modes, plain, per
    level, kept levels only, and per kept level."""
    terms = [
        ModelTerm(kind="edges"),
        ModelTerm(kind="b1cov", attribute="x"),
        ModelTerm(kind="b2cov", attribute="z"),
        ModelTerm(kind="b1factor", attribute="group"),
        ModelTerm(kind="b2factor", attribute="kind"),
        ModelTerm(kind="b2star2"),
        ModelTerm(kind="b2degree1"),
        ModelTerm(kind="b2sociality"),
    ]
    for mode, column in ((1, "group"), (2, "kind")):
        levels = attrs.table_for(mode).categorical(column).levels
        for diff in (False, True):
            for keep in (None, levels[:2]):
                terms.append(
                    ModelTerm(
                        kind=f"b{mode}nodematch",
                        attribute=column,
                        diff=diff,
                        keep_levels=keep,
                        **{which: exponent},
                    )
                )
    # a kind added to the catalogue must join this spec, and so the
    # fingerprints and kernel tests that run it
    assert {t.kind for t in terms} == set(KINDS)
    return ModelSpec(tuple(terms))


# the networks that the design and term-fingerprint tests run every term on
DESIGN_CASES = [
    ((6, 9), "random"), ((9, 6), "random"), ((5, 7), "empty"), ((5, 7), "full"), ((7, 5), "full"),
]


def design_case(shape, fill, seed=17):
    rng = np.random.default_rng(seed)
    n1, n2 = shape
    attrs = random_attrs(rng, n1, n2, levels=("a", "b", "c"))
    if fill == "random":
        return random_net(rng, n1, n2, density=0.45), attrs
    dyads = [(i, k) for i in range(1, n1 + 1) for k in range(n1 + 1, n1 + n2 + 1)]
    return from_edge_list(n1, n2, dyads if fill == "full" else []), attrs
