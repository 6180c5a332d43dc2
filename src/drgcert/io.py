"""Serialization: graph6 strings, a plain edge-list text format, and the
JSON record codec, in which the json module writes and copies every
record (a frozen dataclass deriving from _Record)."""

from __future__ import annotations

import json
from binascii import b2a_base64
from dataclasses import fields

from .graph import Graph, _neighbor_masks, from_edge_list

_G6_MAX_SMALL = 62
_G6_MAX = 258047  # largest n encodable in the 18-bit header form


def _g6_header(n: int) -> bytes:
    if n <= _G6_MAX_SMALL:
        return bytes([n + 63])
    if n <= _G6_MAX:
        return bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    raise ValueError(f"graph6 supports at most {_G6_MAX} vertices here, got {n}")


_B64_TO_G6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)


def to_graph6(g: Graph) -> str:
    """Encode as graph6: upper-triangle bits in column-major order, 6 per byte.

    Column j is bits 0..j-1 of the neighbor mask of j, least first.  Read
    as one big-endian integer, the bit string splits into 6-bit groups as
    base64 splits bytes, so translating base64's alphabet to the bytes
    63..126 gives the body."""
    bits = "".join(
        format(mask & ((1 << j) - 1), f"0{j}b")[::-1]
        for j, mask in enumerate(_neighbor_masks(g))
        if j
    )
    nbytes = -(-len(bits) // 24) * 3
    body = int(bits.ljust(8 * nbytes, "0") or "0", 2).to_bytes(nbytes, "big")
    chars = b2a_base64(body, newline=False).translate(_B64_TO_G6)[: -(-len(bits) // 6)]
    return (_g6_header(g.n) + chars).decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string; malformed length or padding is an error."""
    data = text.strip().encode("ascii")
    if not data:
        raise ValueError("empty graph6 string")
    if data[0] == 126:
        if len(data) < 4:
            raise ValueError("truncated graph6 header")
        vals = [b - 63 for b in data[1:4]]
        if any(v < 0 or v > 63 for v in vals):
            raise ValueError("invalid graph6 header byte")
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        body = data[4:]
    else:
        n = data[0] - 63
        if n < 0 or n > _G6_MAX_SMALL:
            raise ValueError("invalid graph6 header byte")
        body = data[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    bits = []
    for b in body:
        v = b - 63
        if v < 0 or v > 63:
            raise ValueError("invalid graph6 body byte")
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits in graph6 body")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return Graph(n, edges)


def to_edge_text(g: Graph, comment: str | None = None) -> str:
    """Edge-list text: optional '#' comments, a 'n m' header, one edge per line."""
    lines = []
    if comment:
        for piece in comment.splitlines():
            lines.append(f"# {piece}")
    lines.append(f"{g.n} {g.num_edges}")
    for u, v in g.sorted_edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def from_edge_text(text: str) -> Graph:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ValueError("edge text has no content")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"expected 'n m' header, got {rows[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"header claims {m} edges, found {len(rows) - 1}")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return from_edge_list(n, edges)


def read_graph(path: str, fmt: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if fmt == "graph6":
        return from_graph6(text)
    if fmt == "edges":
        return from_edge_text(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def write_graph(g: Graph, path: str, fmt: str, comment: str | None = None) -> None:
    if fmt == "graph6":
        text = to_graph6(g) + "\n"
    elif fmt == "edges":
        text = to_edge_text(g, comment=comment)
    else:
        raise ValueError(f"unknown graph format {fmt!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


# ---------------------------------------------------------------- records

# JSON type of each field annotation; a bool is never accepted for an int
_JSON_TYPES = {"str": str, "int": int, "None": type(None), "dict": dict, "tuple": list}


def _encode(value):
    """json's hook for what it cannot encode: a record is its JSON object,
    any other object a TypeError, as without the hook."""
    if isinstance(value, _Record):
        return value._json_object()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _Record:
    """JSON form of a frozen dataclass, derived from its fields: json writes
    tuple fields as lists, and a field's metadata may name a "load"
    function that rebuilds it from JSON instead."""

    def _json_object(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self, **options) -> str:
        """The record as JSON text; options go to json.dumps."""
        return json.dumps(self, default=_encode, **options)

    def to_dict(self) -> dict:
        """The record's JSON object as json reads it back, so it shares no
        mutable part with the record."""
        return json.loads(json.dumps(self, default=_encode))

    @classmethod
    def from_json(cls, text: str):
        """The record JSON text holds, as from_dict reads it; text nested
        too deeply for json is a ValueError too."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError(f"{cls.__name__} JSON is nested too deeply") from None
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict):
        """The record a JSON object holds: exactly the fields' keys, each of
        its annotation's JSON type.  Raises ValueError naming the field."""
        names = [f.name for f in fields(cls)]
        if not isinstance(data, dict) or set(data) != set(names):
            keys = sorted(data) if isinstance(data, dict) else type(data).__name__
            raise ValueError(f"{cls.__name__} has fields {names}, got {keys}")
        kwargs = {}
        for f in fields(cls):
            value = data[f.name]
            # annotations are strings under "from __future__ import annotations"
            types = tuple(_JSON_TYPES[t] for t in f.type.split(" | "))
            if isinstance(value, bool) or not isinstance(value, types):
                kind = type(value).__name__
                raise ValueError(f"{cls.__name__}.{f.name} is {kind}, not {f.type}")
            load = f.metadata.get("load", tuple if f.type == "tuple" else None)
            kwargs[f.name] = value if load is None else load(value)
        return cls(**kwargs)
