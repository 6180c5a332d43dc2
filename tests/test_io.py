"""graph6 codec and edge-list text format."""

from random import Random

import pytest

from drgcert.graph import Graph
from drgcert.io import (
    from_edge_text,
    from_graph6,
    read_graph,
    to_edge_text,
    to_graph6,
    write_graph,
)
from oracles import (
    from_graph6_reference,
    oracle_inputs,
    random_connected_graph,
    to_graph6_reference,
)


def test_graph6_known_strings():
    # reference encodings from the format definition
    assert to_graph6(Graph(0)) == "?"
    assert to_graph6(Graph(1)) == "@"
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert to_graph6(k3) == "Bw"
    assert from_graph6("Bw").num_edges == 3
    # complete graph on 4 vertices
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert to_graph6(k4) == "C~"


def test_graph6_roundtrip_random():
    rng = Random(515001)
    for _ in range(80):
        n = rng.randint(0, 40)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
        ]
        g = Graph(n, edges)
        h = from_graph6(to_graph6(g))
        assert h.n == g.n
        assert set(h.edges) == set(g.edges)


def test_graph6_large_order_header():
    # orders above 62 use the multi-byte length prefix
    g = Graph(63, [(0, 62)])
    s = to_graph6(g)
    assert s.startswith("~")
    h = from_graph6(s)
    assert h.n == 63 and h.adjacent(0, 62)


def test_graph6_matches_reference_encoder():
    # every oracle input, and orders around the one-byte header's limit
    rng = Random(515002)
    around_header = [
        Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        for n in (0, 1, 2, 61, 62, 63, 64, 65)
        for p in (0.0, 0.3, 1.0)
    ]
    graphs = [g for _, g in oracle_inputs()] + around_header
    for g in graphs:
        assert to_graph6(g) == to_graph6_reference(g), g
    assert {0, 1, 63} <= {g.n for g in graphs}


def _decoded(decode, text):
    """The graph decode reads from text, or the text of its ValueError."""
    try:
        return decode(text)
    except ValueError as exc:
        return str(exc)


def test_graph6_decoder_matches_reference_decoder():
    # every oracle input, and seeded random graphs in both header forms
    rng = Random(515004)
    graphs = [g for _, g in oracle_inputs()]
    for n in (0, 1, 2, 3, 7, 61, 62, 63, 64, 100, 199, 256, 300):
        p = rng.choice((0.0, 0.05, 0.5, 1.0))
        graphs.append(
            Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        )
    for g in graphs:
        text = to_graph6(g)
        assert from_graph6(text) == from_graph6_reference(text) == g, text[:20]
    assert max(g.n for g in graphs) == 300


def test_graph6_decoders_agree_on_malformed_strings():
    malformed = [
        "",  # empty
        "  \n",  # empty once stripped
        "~",  # truncated header
        "~??",
        "~~??????",  # 8-byte header
        "~~",
        ">",  # bad header byte: n = -1
        "\x7f",  # n = 64 in the one-byte form
        "~?>?",  # bad byte in the 18-bit header
        "~?\x7f?",
        "C>",  # bad body byte
        "C\x7f",
        "D?>",
        "C",  # wrong length
        "C~~",
        "~??~" + "?" * 10,
        "Bx",  # nonzero padding: n = 3 uses 3 of 6 bits
        "D?@",  # n = 5 uses 10 of 12 bits
        "~??~" + "?" * 325 + "@",  # n = 63 uses 1953 of 1956 bits
    ]
    assert all(isinstance(_decoded(from_graph6, t), str) for t in malformed)
    rng = Random(515005)
    for n in (5, 40, 63, 90):
        text = to_graph6(random_connected_graph(rng, n))
        for _ in range(20):
            i = rng.randrange(len(text))
            malformed.append(text[:i] + chr(rng.randint(32, 127)) + text[i + 1 :])
        malformed += [text[:-1], text + "?", text + "~"]
    for text in malformed:
        ours, reference = _decoded(from_graph6, text), _decoded(from_graph6_reference, text)
        assert ours == reference, (text, ours, reference)


def test_graph6_rejects_garbage():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("C")  # truncated bit data for n=4


def test_graph6_rejects_eight_byte_header():
    # "~~" opens the 36-bit length form, for orders above the 18-bit form's
    # 258047; read as the 18-bit form it would claim n in 258048..262143
    for text in ("~~", "~~?", "~~???????", "~~?????~~~", "~~~~~~~~"):
        with pytest.raises(ValueError, match="at most 258047 vertices"):
            from_graph6(text)


def test_edge_text_roundtrip():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    text = to_edge_text(g, comment="test graph")
    assert text.startswith("# test graph\n5 3\n")
    h = from_edge_text(text)
    assert h.n == 5 and set(h.edges) == set(g.edges)


def test_edge_text_isolated_vertices():
    g = Graph(4, [(0, 1)])
    h = from_edge_text(to_edge_text(g))
    assert h.n == 4 and h.num_edges == 1


def test_edge_text_rejects_malformed():
    with pytest.raises(ValueError):
        from_edge_text("3\n0 1\n")  # header needs n and edge count
    with pytest.raises(ValueError):
        from_edge_text("3 2\n0 1\n")  # fewer edges than promised


def test_file_roundtrip(tmp_path):
    rng = Random(515002)
    g = random_connected_graph(rng, 9)
    p6 = tmp_path / "g.g6"
    pe = tmp_path / "g.edges"
    write_graph(g, str(p6), "graph6")
    write_graph(g, str(pe), "edges")
    assert set(read_graph(str(p6), "graph6").edges) == set(g.edges)
    assert set(read_graph(str(pe), "edges").edges) == set(g.edges)


def test_read_graph_unknown_format(tmp_path):
    p = tmp_path / "g"
    p.write_text("?")
    with pytest.raises(ValueError):
        read_graph(str(p), "dot")
