"""Readers and writers for the edge-list and attribute file formats.

Edge list::

    n1 3 n2 2
    1	4
    2	4

First line declares the node counts; each following line is one dyad,
1-based, mode-1 index first.  Lines starting with ``#`` are ignored.

Attribute table::

    id	gender	tenure
    type	cat	num
    1	Male	5.25

Row one names the columns (first column is the node id), row two declares
each attribute column ``cat`` or ``num``, and data rows must cover every
node of the mode exactly once using global node ids (1..n1 for mode 1,
n1+1..n1+n2 for mode 2).  Fields are tab-, comma-, or whitespace-delimited.
"""

from __future__ import annotations

from typing import Iterable

from .graph import AttributeTable, BipartiteNetwork


class FileFormatError(ValueError):
    """An input file does not match the declared format."""

    def __init__(self, path, line_no: int | None, message: str):
        loc = f"{path}" if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{loc}: {message}")
        self.path = str(path)
        self.line_no = line_no


def read_text(path) -> str:
    """The whole text of a file, which must be UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:  # decoded at once, so `start` is the file's byte offset
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(path, line_no, f"not UTF-8 text ({exc.reason})") from None


def _data_lines(path) -> list[tuple[int, str]]:
    lines = []
    for no, line in enumerate(read_text(path).split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((no, stripped))
    return lines


def _split(line: str) -> list[str]:
    if "\t" in line:
        return [f.strip() for f in line.split("\t")]
    if "," in line:
        return [f.strip() for f in line.split(",")]
    return line.split()


def load_network(path) -> BipartiteNetwork:
    lines = _data_lines(path)
    if not lines:
        raise FileFormatError(path, None, "empty edge-list file")
    no, header = lines[0]
    fields = _split(header)
    if len(fields) != 4 or fields[0] != "n1" or fields[2] != "n2":
        raise FileFormatError(path, no, f"expected header 'n1 <int> n2 <int>', got {header!r}")
    try:
        net = BipartiteNetwork(int(fields[1]), int(fields[3]))
    except ValueError:
        raise FileFormatError(
            path, no, f"non-integer or negative node count in header {header!r}"
        ) from None
    for no, line in lines[1:]:
        fields = _split(line)
        if len(fields) != 2:
            raise FileFormatError(path, no, f"expected 'i<TAB>k', got {line!r}")
        try:
            i, k = int(fields[0]), int(fields[1])
        except ValueError:
            raise FileFormatError(path, no, f"non-integer node id in {line!r}") from None
        try:
            # checks the dyad once, as `from_edge_list` does; a repeated dyad collapses
            if not net.has_edge(i, k):
                net._add(i, k)
        except ValueError as exc:  # out of range or within one mode
            raise FileFormatError(path, no, str(exc)) from None
    return net


def save_network(path, net: BipartiteNetwork, comments: Iterable[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        handle.write(f"n1 {net.n1} n2 {net.n2}\n")
        for i, k in sorted(net.edges()):
            handle.write(f"{i}\t{k}\n")


def load_attributes(path, mode: int, n1: int, n2: int) -> AttributeTable:
    lines = _data_lines(path)
    if len(lines) < 2:
        raise FileFormatError(path, None, "attribute file needs a header and a type line")
    size = n1 if mode == 1 else n2
    first_node = 1 if mode == 1 else n1 + 1

    no, header = lines[0]
    columns = _split(header)[1:]
    if not columns:
        raise FileFormatError(path, no, "no attribute columns declared")
    no, type_line = lines[1]
    type_fields = _split(type_line)
    if type_fields and type_fields[0].lstrip("#").lower() in ("type", "types"):
        type_fields = type_fields[1:]
    if len(type_fields) != len(columns):
        raise FileFormatError(
            path, no, f"type line declares {len(type_fields)} columns, header has {len(columns)}"
        )
    kinds = []
    for token in type_fields:
        token = token.lower()
        if token not in ("cat", "num"):
            raise FileFormatError(path, no, f"column type must be 'cat' or 'num', got {token!r}")
        kinds.append(token)

    seen: dict[int, list[str]] = {}
    for no, line in lines[2:]:
        fields = _split(line)
        if len(fields) != len(columns) + 1:
            raise FileFormatError(
                path, no, f"expected {len(columns) + 1} fields, got {len(fields)}"
            )
        try:
            node = int(fields[0])
        except ValueError:
            raise FileFormatError(path, no, f"non-integer node id {fields[0]!r}") from None
        if not first_node <= node < first_node + size:
            raise FileFormatError(
                path,
                no,
                f"node {node} outside mode-{mode} range {first_node}..{first_node + size - 1}",
            )
        if node in seen:
            raise FileFormatError(path, no, f"duplicate row for node {node}")
        seen[node] = fields[1:]
    missing = [n for n in range(first_node, first_node + size) if n not in seen]
    if missing:
        raise FileFormatError(
            path, None, f"missing attribute rows for mode-{mode} nodes {missing}"
        )

    table = AttributeTable(mode=mode, size=size)
    for c, (name, kind) in enumerate(zip(columns, kinds)):
        values = [seen[n][c] for n in range(first_node, first_node + size)]
        if kind == "num":
            try:
                values = [float(v) for v in values]
            except ValueError:
                raise FileFormatError(
                    path, None, f"non-numeric value in 'num' column {name!r}"
                ) from None
        try:
            (table.add_categorical if kind == "cat" else table.add_numeric)(name, values)
        except ValueError as err:  # a duplicate column, or a non-finite number
            raise FileFormatError(path, None, str(err)) from None
    return table


def save_attributes(path, table: AttributeTable, n1: int) -> None:
    from .graph import CategoricalColumn

    first_node = 1 if table.mode == 1 else n1 + 1
    names = table.names
    cols = [table.column(name) for name in names]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id\t" + "\t".join(names) + "\n")
        handle.write(
            "type\t"
            + "\t".join("cat" if isinstance(c, CategoricalColumn) else "num" for c in cols)
            + "\n"
        )
        for off in range(table.size):
            row = [str(first_node + off)]
            for col in cols:
                if isinstance(col, CategoricalColumn):
                    row.append(col.level_of(off))
                else:
                    row.append(repr(float(col.values[off])))
            handle.write("\t".join(row) + "\n")


__all__ = [
    "FileFormatError",
    "read_text",
    "load_network",
    "save_network",
    "load_attributes",
    "save_attributes",
]
