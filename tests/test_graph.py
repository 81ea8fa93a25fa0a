import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipergm import AttributeTable, from_edge_list, project
from bipergm.graph import ColumnTypeError, ModeViolationError

from conftest import FIG2_EDGES


def test_from_edge_list_empty():
    net = from_edge_list(3, 2, [])
    assert net.edge_count == 0
    assert net.dyad_count == 6


def test_from_edge_list_fig2(fig2_net):
    assert fig2_net.edge_count == 5
    assert fig2_net.has_edge(1, 4)
    assert not fig2_net.has_edge(3, 5)
    assert fig2_net.mask[4].bit_count() == 3
    assert fig2_net.mask[1].bit_count() == 2


def test_from_edge_list_collapses_duplicates():
    net = from_edge_list(3, 2, [(1, 4), (1, 4)])
    assert net.edge_count == 1


def test_from_edge_list_rejects_bad_dyads():
    with pytest.raises(ValueError, match=r"out of range"):
        from_edge_list(3, 2, [(1, 9)])
    with pytest.raises(ModeViolationError, match=r"\(1, 2\)"):
        from_edge_list(3, 2, [(1, 2)])
    with pytest.raises(ModeViolationError):
        from_edge_list(3, 2, [(4, 5)])


def test_toggle_basics():
    net = from_edge_list(3, 2, [])
    assert net.toggle(1, 4)
    assert net.has_edge(1, 4)
    assert net.edge_count == 1
    assert not net.toggle(1, 4)
    assert net.edge_count == 0
    with pytest.raises(ModeViolationError):
        net.toggle(4, 1)


def test_toggle_removes_from_fig2(fig2_net):
    assert not fig2_net.toggle(1, 5)
    assert fig2_net.edge_count == 4
    assert not fig2_net.has_edge(1, 5)
    assert set(fig2_net.edges()) == set(FIG2_EDGES) - {(1, 5)}


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(5, 8)), max_size=60))
def test_toggle_matches_set_model(moves):
    net = from_edge_list(4, 4, [])
    model = set()
    for i, k in moves:
        net.toggle(i, k)
        model ^= {(i, k)}
        assert net.has_edge(i, k) == ((i, k) in model)
    assert set(net.edges()) == model
    assert sum(net.mask[i].bit_count() for i in range(1, 5)) == net.edge_count
    assert sum(net.mask[k].bit_count() for k in range(5, 9)) == net.edge_count
    net.check_consistency()


def test_toggling_a_copy_leaves_the_original_unchanged(fig2_net):
    masks, edges = list(fig2_net.mask), set(fig2_net.edges())
    dup = fig2_net.copy()
    assert dup.mask == masks
    dup.toggle(1, 4)
    dup.toggle(3, 5)
    dup.check_consistency()
    assert dup.mask != masks
    assert fig2_net.mask == masks and set(fig2_net.edges()) == edges
    fig2_net.check_consistency()


def test_toggle_involution(fig2_net):
    before = set(fig2_net.edges())
    fig2_net.toggle(2, 5)
    fig2_net.toggle(2, 5)
    assert set(fig2_net.edges()) == before


def test_project_fig2(fig2_net):
    p1 = project(fig2_net, 1)
    assert p1.weights == {(1, 2): 2, (1, 3): 1, (2, 3): 1}
    p2 = project(fig2_net, 2)
    assert p2.weights == {(4, 5): 2}
    assert p2.weight(5, 4) == 2
    assert p2.weight(4, 5) == 2


def test_project_empty():
    net = from_edge_list(3, 2, [])
    assert project(net, 1).weights == {}
    assert project(net, 2).weights == {}


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**30))
def test_project_matches_matrix_square(n1, n2, seed):
    rng = np.random.default_rng(seed)
    mat = (rng.random((n1, n2)) < 0.5).astype(np.int64)
    net = from_edge_list(
        n1, n2, [(i + 1, n1 + 1 + k) for i in range(n1) for k in range(n2) if mat[i, k]]
    )
    sq1 = mat @ mat.T  # mode-1 diagonal block of the adjacency square
    sq2 = mat.T @ mat
    p1, p2 = project(net, 1), project(net, 2)
    for a in range(n1):
        for b in range(a + 1, n1):
            assert p1.weight(a + 1, b + 1) == sq1[a, b]
    for a in range(n2):
        for b in range(a + 1, n2):
            assert p2.weight(n1 + 1 + a, n1 + 1 + b) == sq2[a, b]
    # pairs without a two-path are omitted
    assert set(p1.weights) == {
        (a + 1, b + 1) for a in range(n1) for b in range(a + 1, n1) if sq1[a, b] > 0
    }
    assert set(p2.weights) == {
        (n1 + 1 + a, n1 + 1 + b) for a in range(n2) for b in range(a + 1, n2) if sq2[a, b] > 0
    }


def test_attribute_table_guards():
    table = AttributeTable(1, 3)
    with pytest.raises(ValueError, match="2 values for 3"):
        table.add_categorical("g", ["a", "b"])
    table.add_categorical("g", ["b", "a", "b"])
    assert table.categorical("g").levels == ("a", "b")
    with pytest.raises(KeyError, match="unknown attribute"):
        table.column("missing")
    table.add_numeric("x", [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="duplicate column 'g'"):
        table.add_numeric("g", [0.0, 1.0, 2.0])
    with pytest.raises(ColumnTypeError):
        table.categorical("x")
    with pytest.raises(ColumnTypeError):
        table.numeric("g")
