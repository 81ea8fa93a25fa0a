import pytest

from bipergm import from_edge_list
from bipergm.io import (
    FileFormatError,
    load_attributes,
    load_network,
    save_attributes,
    save_network,
)

from conftest import FIG2_EDGES


def test_network_round_trip(tmp_path):
    net = from_edge_list(3, 2, FIG2_EDGES)
    path = tmp_path / "net.edges"
    save_network(path, net, comments=["written by test"])
    loaded = load_network(path)
    assert loaded == net


def test_load_network_format(tmp_path):
    path = tmp_path / "net.edges"
    path.write_text("n1 2 n2 2\n1\t3\n2 4\n")
    net = load_network(path)
    assert set(net.edges()) == {(1, 3), (2, 4)}


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "empty"),
        ("n1 2\n", "header"),
        ("n1 two n2 2\n", "non-integer"),
        ("n1 2 n2 2\n1\n", "expected"),
        ("n1 2 n2 2\n1\tx\n", "non-integer"),
        ("n1 2 n2 2\n1\t9\n", "out of range"),
        # a bad dyad is reported at its line
        ("n1 2 n2 2\n1 3\n1 9\n2 4\n", r"bad\.edges:3: node 9 out of range 1\.\.4"),
        ("n1 2 n2 2\n3 4\n", r"bad\.edges:2: dyad \(3, 4\) violates the mode restriction"),
    ],
)
def test_load_network_rejects(tmp_path, content, fragment):
    path = tmp_path / "bad.edges"
    path.write_text(content)
    with pytest.raises(FileFormatError, match=fragment):
        load_network(path)


ATTRS = "id\tgender\ttenure\ntype\tcat\tnum\n1\tMale\t5.5\n2\tFemale\t2.0\n3\tMale\t1.25\n"


def test_load_attributes(tmp_path):
    path = tmp_path / "attrs1.tsv"
    path.write_text(ATTRS)
    table = load_attributes(path, mode=1, n1=3, n2=2)
    assert table.categorical("gender").levels == ("Female", "Male")
    assert table.numeric("tenure").values.tolist() == [5.5, 2.0, 1.25]


def test_load_attributes_mode2_ids(tmp_path):
    path = tmp_path / "attrs2.tsv"
    path.write_text("id\thard\ntype\tcat\n4\tyes\n5\tno\n")
    table = load_attributes(path, mode=2, n1=3, n2=2)
    assert table.categorical("hard").level_of(0) == "yes"


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("id\tg\n1\ta\n", "type"),  # missing/invalid type line
        ("id\tg\ntype\tcat\n1\ta\n", "missing attribute rows"),
        ("id\tg\ntype\tcat\n1\ta\n1\tb\n2\ta\n", "duplicate"),
        ("id\tg\ntype\tcat\n0\ta\n2\tb\n", "range"),
        ("id\tg\ntype\tblob\n1\ta\n2\tb\n", "'cat' or 'num'"),
        ("id\tg\ntype\tnum\n1\ta\n2\tb\n", "non-numeric"),
        ("id\tg\ntype\tnum\n1\tinf\n2\t0.5\n", "non-finite"),
        ("id\tg\tg\ntype\tcat\tnum\n1\ta\t1\n2\tb\t2\n", "duplicate column 'g'"),
    ],
)
def test_load_attributes_rejects(tmp_path, content, fragment):
    path = tmp_path / "bad.tsv"
    path.write_text(content)
    with pytest.raises(FileFormatError, match=fragment):
        load_attributes(path, mode=1, n1=2, n2=2)


def test_attributes_round_trip(tmp_path):
    path = tmp_path / "attrs.tsv"
    path.write_text(ATTRS)
    table = load_attributes(path, mode=1, n1=3, n2=2)
    out = tmp_path / "out.tsv"
    save_attributes(out, table, n1=3)
    again = load_attributes(out, mode=1, n1=3, n2=2)
    assert again.categorical("gender").codes.tolist() == table.categorical("gender").codes.tolist()
    assert again.numeric("tenure").values.tolist() == table.numeric("tenure").values.tolist()


def test_comma_delimited(tmp_path):
    path = tmp_path / "attrs.csv"
    path.write_text("id,g\ntype,cat\n1,a\n2,b\n")
    table = load_attributes(path, mode=1, n1=2, n2=1)
    assert table.categorical("g").levels == ("a", "b")
